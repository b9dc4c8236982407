// Differential suite for the parallel bulk decomposition (DESIGN.md
// §12): the exact peel must be bit-identical to BZ (cores) and emit a
// valid k-order, deterministically across worker counts. Every image
// source — the peel, BZ and a maintained state's save_order() — goes
// through the one installer, CoreState::install; the maintainer is
// exercised from a peel-ordered start. Plus the peel's verification
// consumers: recovery verify and the engine's background re-verifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "decomp/bz.h"
#include "decomp/parallel_peel.h"
#include "durability/recovery.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "maint/core_state.h"
#include "parallel/parallel_order.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

// Feeds (core, order) through CoreState::install, which checks
// permutation shape, non-decreasing cores along the order, dout <= core
// and mcd >= core — the properties that make an order a k-order
// instance — then runs the full invariant suite including core
// correctness, checks the adjacency prefix the install partitioned (in
// g, in place), and that save_order() hands back exactly this image.
void expect_valid_korder(DynamicGraph& g, std::span<const CoreValue> core,
                         std::span<const VertexId> order,
                         const std::string& context) {
  CoreState state;
  std::string err;
  ASSERT_TRUE(state.install(g, core, order, CoreState::Options{}, &err))
      << context << ": " << err;
  EXPECT_TRUE(state.check_invariants(g, &err, /*check_cores=*/true))
      << context << ": " << err;
  EXPECT_TRUE(state.check_prefix(g, &err)) << context << ": " << err;
  const SavedCoreOrder saved = state.save_order();
  EXPECT_TRUE(std::ranges::equal(saved.order, order)) << context;
  EXPECT_TRUE(std::ranges::equal(saved.core, core)) << context;
}

class BulkDecomposeFamily
    : public ::testing::TestWithParam<std::tuple<Family, std::uint64_t>> {};

TEST_P(BulkDecomposeFamily, ExactMatchesBzAcrossWorkers) {
  const auto [family, seed] = GetParam();
  Rng rng(seed);
  const std::size_t n = 600;
  auto g = DynamicGraph::from_edges(n, test::family_edges(family, n, rng));
  const Decomposition expect = bz_decompose(g);

  ThreadTeam team(8);
  const std::string base = std::string("family ") +
                           test::family_name(family) + " seed " +
                           std::to_string(seed);
  BulkDecomposition first;
  for (int workers : {1, 2, 4, 8}) {
    const BulkDecomposition d = parallel_decompose(g, team, workers);
    ASSERT_EQ(d.core.size(), expect.core.size());
    EXPECT_EQ(d.core, expect.core) << base << " workers " << workers;
    EXPECT_EQ(d.max_core, expect.max_core);
    ASSERT_EQ(d.order.size(), n) << base;
    if (workers == 1) {
      first = d;
      expect_valid_korder(g, d.core, d.order, base);
    } else {
      // Determinism: the frontier sequence is fixed by the barrier
      // structure, not the schedule, so the ORDER (not just the cores)
      // is identical for every worker count.
      EXPECT_EQ(d.order, first.order) << base << " workers " << workers;
      EXPECT_EQ(d.rounds, first.rounds) << base << " workers " << workers;
    }
  }
  expect_valid_korder(g, expect.core, expect.peel_order, base + " bz");
}

INSTANTIATE_TEST_SUITE_P(
    Families, BulkDecomposeFamily,
    ::testing::Combine(::testing::Values(Family::kEr, Family::kBa,
                                         Family::kRmat, Family::kClique,
                                         Family::kPath, Family::kStar),
                       ::testing::Values(1u, 2u, 3u)));

TEST(BulkDecompose, EmptyAndEdgelessGraphs) {
  ThreadTeam team(4);
  DynamicGraph empty(0);
  const BulkDecomposition d0 = parallel_decompose(empty, team, 4);
  EXPECT_TRUE(d0.core.empty());
  EXPECT_TRUE(d0.order.empty());
  EXPECT_EQ(d0.max_core, 0);

  DynamicGraph isolated(5);  // vertices, no edges
  const BulkDecomposition d1 = parallel_decompose(isolated, team, 4);
  ASSERT_EQ(d1.core.size(), 5u);
  for (CoreValue c : d1.core) EXPECT_EQ(c, 0);
  ASSERT_EQ(d1.order.size(), 5u);
  EXPECT_EQ(d1.max_core, 0);
}

TEST(BulkDecompose, DisconnectedComponentsAndIsolates) {
  // Clique {0..4}, path {10..14}, isolates in between and above.
  std::vector<Edge> edges = gen_clique(5);
  for (VertexId v = 10; v < 14; ++v) edges.push_back(Edge{v, v + 1});
  auto g = DynamicGraph::from_edges(20, edges);
  ThreadTeam team(4);
  const BulkDecomposition d = parallel_decompose(g, team, 4);
  const Decomposition expect = bz_decompose(g);
  EXPECT_EQ(d.core, expect.core);
  expect_valid_korder(g, d.core, d.order, "disconnected");
  expect_valid_korder(g, expect.core, expect.peel_order, "disconnected bz");
}

// A maintained state is a valid k-order too: its save_order() after
// mixed insert/remove batches installs, and installs back to itself.
TEST(BulkDecompose, MaintainedImageInstallsAfterMixedBatches) {
  test::Workload w = test::make_workload(Family::kRmat, 500, 0.2, 0x1a57);
  DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  const std::size_t half = w.batch.size() / 2;
  const std::span<const Edge> batch(w.batch);
  m.insert_batch(batch, 4);
  m.remove_batch(batch.first(half), 4);
  m.remove_batch(std::span<const Edge>(w.base).first(w.base.size() / 4), 4);
  m.insert_batch(batch.first(half / 2), 4);
  const SavedCoreOrder saved = m.state().save_order();
  DynamicGraph copy = g;
  expect_valid_korder(copy, saved.core, saved.order, "maintained");
}

TEST(MaintainerParallelInit, MaintainsAfterParallelColdStart) {
  test::Workload w = test::make_workload(Family::kEr, 500, 0.15, 0x5eed);
  DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  // Start from the peel's k-order instead of BZ's: OurI/OurR must
  // maintain from any valid k-order (Definition 3.5).
  const BulkDecomposition d = parallel_decompose(g, team, 4);
  ASSERT_NE(d.order, bz_decompose(g).peel_order);
  const SavedCoreOrder peel{d.core, d.order};
  ParallelOrderMaintainer::Options opts;
  opts.restore = &peel;
  ParallelOrderMaintainer m(g, team, opts);
  ASSERT_EQ(m.state().save_order().order, d.order);

  m.insert_batch(w.batch, 4);
  {
    DynamicGraph full = DynamicGraph::from_edges(w.n, w.base);
    for (const Edge& e : w.batch) full.insert_edge(e.u, e.v);
    test::expect_cores_match(full, m.cores(), "after insert");
  }
  m.remove_batch(w.batch, 4);
  {
    DynamicGraph base = DynamicGraph::from_edges(w.n, w.base);
    test::expect_cores_match(base, m.cores(), "after remove");
  }
  std::string err;
  EXPECT_TRUE(m.state().check_invariants(g, &err, /*check_cores=*/true))
      << err;
}

TEST(VerifyRecoveredCores, AllAlgosAcceptCorrectCores) {
  Rng rng(0xacce97);
  auto g = DynamicGraph::from_edges(300, test::family_edges(Family::kEr,
                                                            300, rng));
  const std::vector<CoreValue> truth = bz_decompose(g).core;
  ThreadTeam team(4);
  for (auto algo : {durability::VerifyAlgo::kBz,
                    durability::VerifyAlgo::kParallel}) {
    const durability::VerifyOutcome out =
        durability::verify_recovered_cores(g, truth, algo, team, 4);
    EXPECT_TRUE(out.passed) << out.algo << ": " << out.first_mismatch;
    EXPECT_EQ(out.mismatches, 0u);
  }
}

TEST(VerifyRecoveredCores, BzAndParallelRejectIdentically) {
  Rng rng(0x12e7ec7);
  auto g = DynamicGraph::from_edges(300, test::family_edges(Family::kBa,
                                                            300, rng));
  std::vector<CoreValue> doctored = bz_decompose(g).core;
  doctored[7] += 1;    // overclaim
  doctored[42] = 0;    // underclaim
  ThreadTeam team(4);
  const durability::VerifyOutcome bz = durability::verify_recovered_cores(
      g, doctored, durability::VerifyAlgo::kBz, team, 4);
  const durability::VerifyOutcome par = durability::verify_recovered_cores(
      g, doctored, durability::VerifyAlgo::kParallel, team, 4);
  EXPECT_FALSE(bz.passed);
  EXPECT_FALSE(par.passed);
  // Same oracle values => same mismatch count, not merely same verdict.
  EXPECT_EQ(bz.mismatches, par.mismatches);
  EXPECT_EQ(bz.mismatches, 2u);
}

TEST(EngineReverify, BackgroundVerifierRunsCleanly) {
  test::Workload w = test::make_workload(Family::kEr, 300, 0.2, 0xabc);
  DynamicGraph g(w.n);
  ThreadTeam team(4);
  engine::StreamingEngine::Options opts;
  opts.reverify_interval_ms = 2.0;
  engine::StreamingEngine eng(g, team, opts);
  eng.start();
  for (const Edge& e : w.base) eng.submit_insert(e.u, e.v);
  for (const Edge& e : w.batch) eng.submit_insert(e.u, e.v);
  // Give the re-verifier a few intervals of runway over the live graph.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  eng.stop();
  const engine::EngineStats stats = eng.stats();
  EXPECT_GE(stats.verify_runs, 1u);
  EXPECT_EQ(stats.verify_mismatches, 0u);
}

}  // namespace
}  // namespace parcore
