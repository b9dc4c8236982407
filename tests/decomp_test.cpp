#include <gtest/gtest.h>

#include <tuple>

#include "decomp/bz.h"
#include "decomp/verify.h"
#include "gen/generators.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

TEST(Bz, CliqueCoresAreNMinus1) {
  auto g = DynamicGraph::from_edges(6, gen_clique(6));
  Decomposition d = bz_decompose(g);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(d.core[v], 5);
  EXPECT_EQ(d.max_core, 5);
}

TEST(Bz, CycleCoresAreTwo) {
  auto g = DynamicGraph::from_edges(10, gen_cycle(10));
  Decomposition d = bz_decompose(g);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(d.core[v], 2);
}

TEST(Bz, StarCoresAreOne) {
  auto g = DynamicGraph::from_edges(10, gen_star(10));
  Decomposition d = bz_decompose(g);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(d.core[v], 1);
}

TEST(Bz, IsolatedVerticesAreZero) {
  auto g = test::make_graph(5, {{0, 1}});
  Decomposition d = bz_decompose(g);
  EXPECT_EQ(d.core[0], 1);
  EXPECT_EQ(d.core[2], 0);
  EXPECT_EQ(d.core[3], 0);
}

TEST(Bz, KiteGraph) {
  // Triangle (0,1,2) + pendant chain 2-3, 3-4.
  auto g = test::make_graph(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  Decomposition d = bz_decompose(g);
  EXPECT_EQ(d.core[0], 2);
  EXPECT_EQ(d.core[1], 2);
  EXPECT_EQ(d.core[2], 2);
  EXPECT_EQ(d.core[3], 1);
  EXPECT_EQ(d.core[4], 1);
}

TEST(Bz, PeelOrderHasNonDecreasingCores) {
  Rng rng(5);
  auto g = DynamicGraph::from_edges(400, gen_erdos_renyi(400, 1600, rng));
  Decomposition d = bz_decompose(g);
  ASSERT_EQ(d.peel_order.size(), 400u);
  for (std::size_t i = 1; i < d.peel_order.size(); ++i)
    EXPECT_LE(d.core[d.peel_order[i - 1]], d.core[d.peel_order[i]]);
}

TEST(Bz, PeelOrderIsValidKOrder) {
  Rng rng(6);
  auto g = DynamicGraph::from_edges(300, gen_barabasi_albert(300, 4, rng));
  Decomposition d = bz_decompose(g);
  std::vector<std::size_t> rank(g.num_vertices());
  for (std::size_t i = 0; i < d.peel_order.size(); ++i)
    rank[d.peel_order[i]] = i;
  std::string err;
  EXPECT_TRUE(verify_korder_bound(g, d.core, rank, &err)) << err;
}

TEST(Bz, EmptyGraph) {
  DynamicGraph g(0);
  Decomposition d = bz_decompose(g);
  EXPECT_TRUE(d.core.empty());
  EXPECT_EQ(d.max_core, 0);
}

class BzFamilyTest
    : public ::testing::TestWithParam<std::tuple<Family, std::size_t>> {};

TEST_P(BzFamilyTest, MatchesBruteForce) {
  auto [family, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  auto edges = test::family_edges(family, n, rng);
  std::size_t max_v = n;
  for (const Edge& e : edges)
    max_v = std::max<std::size_t>(max_v, std::max(e.u, e.v) + 1);
  auto g = DynamicGraph::from_edges(max_v, edges);
  Decomposition d = bz_decompose(g);
  test::expect_cores_match(g, d.core, family_name(family));
  // The peel order is a valid k-order instance on every family.
  std::vector<std::size_t> rank(g.num_vertices());
  for (std::size_t i = 0; i < d.peel_order.size(); ++i)
    rank[d.peel_order[i]] = i;
  std::string err;
  EXPECT_TRUE(verify_korder_bound(g, d.core, rank, &err)) << err;
}

INSTANTIATE_TEST_SUITE_P(
    Families, BzFamilyTest,
    ::testing::Combine(::testing::Values(Family::kEr, Family::kBa,
                                         Family::kRmat, Family::kClique,
                                         Family::kPath, Family::kStar),
                       ::testing::Values(std::size_t{64}, std::size_t{512})),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BruteForce, SelfConsistentOnKnownGraph) {
  auto g = test::make_graph(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  auto cores = brute_force_cores(g);
  EXPECT_EQ(cores, (std::vector<CoreValue>{2, 2, 2, 1, 1}));
}

TEST(VerifyCores, DetectsMismatch) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  std::vector<CoreValue> wrong{2, 2, 1};
  std::string err;
  EXPECT_FALSE(verify_cores(g, wrong, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace parcore
