// Differential + stress tests for Parallel-Order edge insertion (OurI).
#include <gtest/gtest.h>

#include <tuple>

#include "decomp/bz.h"
#include "gen/generators.h"
#include "graph/edge_list.h"
#include "maint/seq_order.h"
#include "parallel/parallel_order.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

void expect_state_ok(ParallelOrderMaintainer& m, const std::string& ctx) {
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(m.graph(), &err)) << ctx << ": "
                                                           << err;
}

TEST(ParallelInsert, SingleEdgeBehavesLikeSequential) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  ThreadTeam team(2);
  ParallelOrderMaintainer m(g, team);
  ASSERT_TRUE(m.insert_edge(0, 2));
  EXPECT_EQ(m.core(0), 2);
  EXPECT_EQ(m.core(1), 2);
  EXPECT_EQ(m.core(2), 2);
  expect_state_ok(m, "triangle");
}

void expect_insert_case(const test::InsertCase& c, const std::string& ctx) {
  auto g = DynamicGraph::from_edges(c.n, c.edges);
  ThreadTeam team(2);
  ParallelOrderMaintainer m(g, team);
  ASSERT_TRUE(m.insert_edge(c.insert.u, c.insert.v));
  EXPECT_EQ(m.cores(), c.cores_after) << ctx;
  test::expect_cores_match(g, m.cores(), ctx);
  expect_state_ok(m, ctx);
}

TEST(ParallelInsert, BackwardOriginKeepsQueuedSuccessorCount) {
  expect_insert_case(test::backward_origin_case(), "backward origin");
}

TEST(ParallelInsert, EvictedPredecessorUncountsQueuedCandidate) {
  expect_insert_case(test::evicted_predecessor_case(), "evicted predecessor");
}

TEST(ParallelInsert, RejectsBadAndDuplicateEdges) {
  auto g = test::make_graph(3, {{0, 1}});
  ThreadTeam team(2);
  ParallelOrderMaintainer m(g, team);
  EXPECT_FALSE(m.insert_edge(0, 0));
  EXPECT_FALSE(m.insert_edge(0, 1));
  EXPECT_FALSE(m.insert_edge(5, 6));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(ParallelInsert, DuplicatesWithinBatchAppliedOnce) {
  auto g = test::make_graph(4, {{0, 1}});
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  std::vector<Edge> batch{{1, 2}, {2, 1}, {1, 2}, {2, 3}, {3, 2}};
  BatchResult r = m.insert_batch(batch, 4);
  EXPECT_EQ(r.applied, 2u);
  EXPECT_EQ(r.skipped, 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  test::expect_cores_match(g, m.cores(), "dups");
}

TEST(ParallelInsert, RaisesMaxCoreLevel) {
  // Completing a clique pushes cores past the initial max level.
  DynamicGraph g(6);
  auto edges = gen_clique(6);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.insert_batch(edges, 4);
  EXPECT_EQ(r.applied, edges.size());
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(m.core(v), 5);
  expect_state_ok(m, "clique-from-empty");
}

class ParallelInsertSweep
    : public ::testing::TestWithParam<std::tuple<Family, int, std::uint64_t>> {
};

TEST_P(ParallelInsertSweep, BatchMatchesBruteForce) {
  auto [family, workers, seed] = GetParam();
  test::Workload w = test::make_workload(family, 500, 0.3, seed);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(workers);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.insert_batch(w.batch, workers);
  EXPECT_EQ(r.applied, w.batch.size());
  test::expect_cores_match(g, m.cores(), "parallel insert");
  expect_state_ok(m, "parallel insert");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelInsertSweep,
    ::testing::Combine(::testing::Values(Family::kEr, Family::kBa,
                                         Family::kRmat, Family::kPath),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ParallelInsert, AgreesWithSequentialOrderMaintainer) {
  test::Workload w = test::make_workload(Family::kRmat, 400, 0.25, 99);
  auto g1 = DynamicGraph::from_edges(w.n, w.base);
  auto g2 = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  ParallelOrderMaintainer par(g1, team);
  SeqOrderMaintainer seq(g2);
  par.insert_batch(w.batch, 4);
  seq.insert_batch(w.batch);
  EXPECT_EQ(par.cores(), seq.cores());
}

TEST(ParallelInsert, SameSubcoreContention) {
  // A single dense subcore: every insertion lands in the same k-order
  // list, maximising lock contention along one O_k (the case prior
  // parallel algorithms cannot parallelise at all).
  Rng rng(123);
  auto base = gen_barabasi_albert(400, 4, rng);
  auto g = DynamicGraph::from_edges(400, base);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  std::vector<Edge> batch;
  for (int i = 0; batch.size() < 300 && i < 20000; ++i) {
    Edge e{static_cast<VertexId>(rng.bounded(400)),
           static_cast<VertexId>(rng.bounded(400))};
    if (e.u != e.v && !g.has_edge(e.u, e.v)) {
      bool dup = false;
      for (const Edge& x : batch)
        if (edge_key(x) == edge_key(e)) dup = true;
      if (!dup) batch.push_back(e);
    }
  }
  BatchResult r = m.insert_batch(batch, 8);
  EXPECT_EQ(r.applied, batch.size());
  test::expect_cores_match(g, m.cores(), "contention");
  expect_state_ok(m, "contention");
}

TEST(ParallelInsert, CollectStatsHistogramsCover) {
  test::Workload w = test::make_workload(Family::kBa, 300, 0.2, 11);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  ParallelOrderMaintainer::Options opts;
  opts.collect_stats = true;
  ParallelOrderMaintainer m(g, team, opts);
  m.insert_batch(w.batch, 4);
  EXPECT_EQ(m.insert_vplus_histogram().total(), w.batch.size());
  EXPECT_EQ(m.insert_vstar_histogram().total(), w.batch.size());
}

TEST(ParallelInsert, RepeatedBatchesStayConsistent) {
  test::Workload w = test::make_workload(Family::kRmat, 600, 0.4, 31);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  auto parts = split_batches(w.batch, 4);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    m.insert_batch(parts[i], 8);
    test::expect_cores_match(g, m.cores(), "chunk " + std::to_string(i));
    expect_state_ok(m, "chunk " + std::to_string(i));
  }
}

// Every edge of these batches shares vertex 0, so racing workers find
// the hub locked and set edges aside for their blocking drain
// (DESIGN.md §9); the drained edges must land exactly as the rest.
TEST(ParallelInsert, HubOnlyBatchInsertThenRemove) {
  const test::Workload w = test::hub_workload(2000, 1500, 61);
  for (int workers : {4, 8}) {
    const std::string ctx = std::to_string(workers) + " workers";
    auto g = DynamicGraph::from_edges(w.n, w.base);
    ThreadTeam team(workers);
    ParallelOrderMaintainer m(g, team);
    BatchResult ins = m.insert_batch(w.batch, workers);
    EXPECT_EQ(ins.applied, w.batch.size()) << ctx;
    EXPECT_LE(m.last_timing().deferred, w.batch.size()) << ctx;
    EXPECT_EQ(m.cores(), bz_decompose(g).core) << ctx << " insert";
    expect_state_ok(m, ctx + " insert");
    BatchResult rem = m.remove_batch(w.batch, workers);
    EXPECT_EQ(rem.applied, w.batch.size()) << ctx;
    EXPECT_EQ(m.cores(), bz_decompose(g).core) << ctx << " remove";
    expect_state_ok(m, ctx + " remove");
  }
}

TEST(ParallelInsert, DuplicatedHubEdgesApplyOnce) {
  // Each edge twice, once per orientation: whichever copy is deferred,
  // exactly one of the two applies.
  const test::Workload w = test::hub_workload(400, 200, 67);
  std::vector<Edge> batch = w.batch;
  for (const Edge& e : w.batch) batch.push_back(Edge{e.v, e.u});
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.insert_batch(batch, 4);
  EXPECT_EQ(r.applied, w.batch.size());
  EXPECT_EQ(r.skipped, w.batch.size());
  EXPECT_EQ(g.num_edges(), w.base.size() + w.batch.size());
  EXPECT_EQ(m.cores(), bz_decompose(g).core);
  expect_state_ok(m, "duplicated hub edges");
}

TEST(ParallelInsert, HeldHubForcesBlockingDrain) {
  // The test holds the hub's lock, so every edge claimed meanwhile is
  // deferred; the batch can finish only through the blocking drain.
  const test::Workload w = test::hub_workload(400, 200, 73);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  BatchResult r;
  test::run_while_locked(m.state().lock(0),
                         [&] { r = m.insert_batch(w.batch, 4); });
  EXPECT_EQ(r.applied, w.batch.size());
  EXPECT_GT(m.last_timing().deferred, 0u);
  EXPECT_LE(m.last_timing().deferred, w.batch.size());
  EXPECT_EQ(m.cores(), bz_decompose(g).core);
  expect_state_ok(m, "held hub");
}

TEST(ParallelInsert, SingleWorkerNeverDefers) {
  // With one worker no other thread can hold an endpoint lock.
  const test::Workload w = test::hub_workload(400, 200, 71);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.insert_batch(w.batch, 1);
  EXPECT_EQ(r.applied, w.batch.size());
  EXPECT_EQ(m.last_timing().deferred, 0u);
  EXPECT_EQ(m.cores(), bz_decompose(g).core);
}

}  // namespace
}  // namespace parcore
