// The maintained adjacency prefix (DESIGN.md §3.1): OurI/OurR scans read
// only the prefix of each list, so after every batch each neighbour with
// core >= floor(v) must lie in v's prefix unless floor(v) is dirty. A
// promotion that skipped its dirty mark leaves such a neighbour behind,
// which this check sees directly (and CheckMCD then undercounts).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "gen/generators.h"
#include "parallel/parallel_order.h"
#include "support/rng.h"
#include "test_util.h"

namespace parcore {
namespace {

void expect_state_ok(const ParallelOrderMaintainer& m, const DynamicGraph& g,
                     const std::string& context) {
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err, /*check_cores=*/true))
      << context << ": " << err;
  ASSERT_TRUE(m.state().check_prefix(g, &err)) << context << ": " << err;
}

class ParallelPrefix
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

// A skewed RMAT graph with many core levels; batches alternate between
// inserting fresh edges and removing a random sample of present ones,
// so levels flip up and back down and floors go stale in both
// directions.
TEST_P(ParallelPrefix, AlternatingBatchesKeepThePrefix) {
  const auto [seed, workers] = GetParam();
  Rng rng(seed);
  std::vector<Edge> all = gen_rmat(11, 12000, RmatParams{}, rng);
  rng.shuffle(all);
  const std::size_t n = std::size_t{1} << 11;
  const std::size_t base_size = all.size() * 7 / 10;
  std::vector<Edge> present(all.begin(), all.begin() + base_size);
  std::vector<Edge> pool(all.begin() + base_size, all.end());

  auto g = DynamicGraph::from_edges(n, present);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  expect_state_ok(m, g, "initial");
  ASSERT_GT(m.state().max_core(), 8);  // several levels to flip

  const std::size_t batch = pool.size() / 4;
  std::uint64_t repartitions = 0;
  for (int round = 0; round < 8; ++round) {
    const std::string ctx = "seed " + std::to_string(seed) + " workers " +
                            std::to_string(workers) + " round " +
                            std::to_string(round);
    // Insert a chunk of the pool.
    std::vector<Edge> ins;
    while (ins.size() < batch && !pool.empty()) {
      ins.push_back(pool.back());
      pool.pop_back();
    }
    EXPECT_EQ(m.insert_batch(ins, workers).applied, ins.size()) << ctx;
    repartitions += m.last_timing().repartitions;
    present.insert(present.end(), ins.begin(), ins.end());
    expect_state_ok(m, g, ctx + " insert");

    // Remove a random sample of everything present; it returns to the
    // pool for a later insert.
    rng.shuffle(present);
    std::vector<Edge> rem(present.end() - static_cast<std::ptrdiff_t>(batch),
                          present.end());
    present.resize(present.size() - batch);
    EXPECT_EQ(m.remove_batch(rem, workers).applied, rem.size()) << ctx;
    EXPECT_GT(m.last_timing().scanned, 0u) << ctx;
    repartitions += m.last_timing().repartitions;
    pool.insert(pool.end(), rem.begin(), rem.end());
    expect_state_ok(m, g, ctx + " remove");
  }
  EXPECT_GT(repartitions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByWorkers, ParallelPrefix,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<ParallelPrefix::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace parcore
