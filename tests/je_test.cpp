// Differential tests for the JE baseline (JEI/JER).
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/je.h"
#include "gen/generators.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

TEST(JeGraph, BuildAndQuery) {
  auto g = test::make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  JeGraph jg;
  jg.build(g);
  EXPECT_EQ(jg.num_edges(), 3u);
  EXPECT_TRUE(jg.has_edge(1, 2));
  EXPECT_FALSE(jg.has_edge(0, 3));
  EXPECT_EQ(jg.live_degree(1), 2u);
}

TEST(JeGraph, AppendAndTombstone) {
  auto g = test::make_graph(4, {{0, 1}});
  JeGraph jg;
  jg.build(g);
  std::vector<Edge> batch{{1, 2}, {2, 3}};
  jg.reserve_for(batch);
  jg.append_edge(1, 2);
  EXPECT_TRUE(jg.has_edge(1, 2));
  EXPECT_EQ(jg.num_edges(), 2u);
  EXPECT_TRUE(jg.tombstone_edge(0, 1));
  EXPECT_FALSE(jg.has_edge(0, 1));
  EXPECT_FALSE(jg.tombstone_edge(0, 1));
  jg.compact();
  EXPECT_EQ(jg.live_degree(0), 0u);
  EXPECT_TRUE(jg.has_edge(1, 2));
}

TEST(JeMaintainer, TriangleInsertRemove) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  ThreadTeam team(2);
  JeMaintainer m(g, team);
  EXPECT_TRUE(m.insert_edge(0, 2));
  EXPECT_EQ(m.core(0), 2);
  EXPECT_TRUE(m.remove_edge(0, 2));
  EXPECT_EQ(m.core(0), 1);
  EXPECT_EQ(m.core(1), 1);
}

TEST(JeMaintainer, RejectsDuplicatesAndMissing) {
  auto g = test::make_graph(3, {{0, 1}});
  ThreadTeam team(2);
  JeMaintainer m(g, team);
  EXPECT_FALSE(m.insert_edge(0, 1));
  EXPECT_FALSE(m.remove_edge(1, 2));
}

class JeSweep
    : public ::testing::TestWithParam<std::tuple<Family, int, std::uint64_t>> {
};

TEST_P(JeSweep, InsertBatchMatchesBruteForce) {
  auto [family, workers, seed] = GetParam();
  test::Workload w = test::make_workload(family, 400, 0.3, seed);
  auto base = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(workers);
  JeMaintainer m(base, team);
  EXPECT_EQ(m.insert_batch(w.batch, workers), w.batch.size());

  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  auto final_graph = DynamicGraph::from_edges(w.n, all);
  test::expect_cores_match(final_graph, m.cores(), "JEI");
}

TEST_P(JeSweep, RemoveBatchMatchesBruteForce) {
  auto [family, workers, seed] = GetParam();
  test::Workload w = test::make_workload(family, 400, 0.3, seed);
  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  auto full = DynamicGraph::from_edges(w.n, all);
  ThreadTeam team(workers);
  JeMaintainer m(full, team);
  EXPECT_EQ(m.remove_batch(w.batch, workers), w.batch.size());

  auto remaining = DynamicGraph::from_edges(w.n, w.base);
  test::expect_cores_match(remaining, m.cores(), "JER");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JeSweep,
    ::testing::Combine(::testing::Values(Family::kEr, Family::kBa,
                                         Family::kRmat),
                       ::testing::Values(1, 4, 8),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(JeMaintainer, UniformCoreGraphStillCorrect) {
  // The BA pathology: one core value => strictly sequential JE rounds.
  Rng rng(33);
  auto edges = gen_barabasi_albert(400, 4, rng);
  auto g = DynamicGraph::from_edges(400, edges);
  ThreadTeam team(8);
  JeMaintainer m(g, team);
  std::vector<Edge> batch;
  for (int i = 0; batch.size() < 150 && i < 30000; ++i) {
    Edge e{static_cast<VertexId>(rng.bounded(400)),
           static_cast<VertexId>(rng.bounded(400))};
    if (e.u == e.v || g.has_edge(e.u, e.v)) continue;
    bool dup = false;
    for (const Edge& x : batch)
      if (edge_key(x) == edge_key(e)) dup = true;
    if (!dup) batch.push_back(e);
  }
  EXPECT_EQ(m.insert_batch(batch, 8), batch.size());
  DynamicGraph expect = g;  // copy base
  for (const Edge& e : batch) expect.insert_edge(e.u, e.v);
  test::expect_cores_match(expect, m.cores(), "uniform core");
}

TEST(JeMaintainer, SequentialFallbackIsCounted) {
  // max_rounds = 0 exhausts the round budget immediately, so every
  // batch takes the defensive sequential path — and each such batch
  // must bump sequential_fallbacks() (what makes a silently-degraded
  // baseline visible in benchmarks).
  test::Workload w = test::make_workload(Family::kEr, 200, 0.2, 7);
  auto base = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  JeMaintainer::Options opts;
  opts.max_rounds = 0;
  JeMaintainer m(base, team, opts);
  EXPECT_EQ(m.sequential_fallbacks(), 0u);
  m.insert_batch(w.batch, 4);
  EXPECT_GE(m.sequential_fallbacks(), 1u);
  const std::uint64_t after_insert = m.sequential_fallbacks();
  m.remove_batch(w.batch, 4);
  EXPECT_GE(m.sequential_fallbacks(), after_insert + 1);

  // Correctness is not sacrificed on the fallback path.
  DynamicGraph expect = DynamicGraph::from_edges(w.n, w.base);
  test::expect_cores_match(expect, m.cores(), "fallback path");
}

TEST(JeMaintainer, InsertThenRemoveRestoresCores) {
  test::Workload w = test::make_workload(Family::kRmat, 400, 0.25, 21);
  auto base = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  JeMaintainer m(base, team);
  auto before = m.cores();
  m.insert_batch(w.batch, 4);
  m.remove_batch(w.batch, 4);
  EXPECT_EQ(m.cores(), before);
}

}  // namespace
}  // namespace parcore
