// Differential + stress tests for Parallel-Order edge removal (OurR).
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

TEST(ParallelRemove, SingleEdgeTriangle) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  ThreadTeam team(2);
  ParallelOrderMaintainer m(g, team);
  ASSERT_TRUE(m.remove_edge(0, 2));
  EXPECT_EQ(m.core(0), 1);
  EXPECT_EQ(m.core(1), 1);
  EXPECT_EQ(m.core(2), 1);
  expect_state_ok(m, "triangle");
}

TEST(ParallelRemove, MissingEdgeRejected) {
  auto g = test::make_graph(3, {{0, 1}});
  ThreadTeam team(2);
  ParallelOrderMaintainer m(g, team);
  EXPECT_FALSE(m.remove_edge(1, 2));
  EXPECT_FALSE(m.remove_edge(0, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(ParallelRemove, DuplicateRemovalsInBatchApplyOnce) {
  auto g = test::make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  std::vector<Edge> batch{{1, 2}, {2, 1}, {1, 2}};
  BatchResult r = m.remove_batch(batch, 4);
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(g.num_edges(), 2u);
  test::expect_cores_match(g, m.cores(), "dups");
}

TEST(ParallelRemove, DrainWholeGraph) {
  Rng rng(17);
  auto edges = gen_erdos_renyi(200, 800, rng);
  auto g = DynamicGraph::from_edges(200, edges);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.remove_batch(edges, 8);
  EXPECT_EQ(r.applied, edges.size());
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 200; ++v) EXPECT_EQ(m.core(v), 0);
  expect_state_ok(m, "drained");
}

class ParallelRemoveSweep
    : public ::testing::TestWithParam<std::tuple<Family, int, std::uint64_t>> {
};

TEST_P(ParallelRemoveSweep, BatchMatchesBruteForce) {
  auto [family, workers, seed] = GetParam();
  // Build the FULL graph, then remove the batch.
  test::Workload w = test::make_workload(family, 500, 0.3, seed);
  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  auto g = DynamicGraph::from_edges(w.n, all);
  ThreadTeam team(workers);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.remove_batch(w.batch, workers);
  EXPECT_EQ(r.applied, w.batch.size());
  test::expect_cores_match(g, m.cores(), "parallel remove");
  expect_state_ok(m, "parallel remove");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelRemoveSweep,
    ::testing::Combine(::testing::Values(Family::kEr, Family::kBa,
                                         Family::kRmat, Family::kPath),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ParallelRemove, OversubscribedRepeatsKeepMcdExact) {
  // Guards CheckMCD's (core, t) snapshot (DESIGN.md §3.2 item 2). If a
  // demotion publishes t = 2 before lowering core, a neighbour's
  // CheckMCD can pair the old core (one below its own) with the new t
  // and count the vertex as a pending demotion from its own level.
  // That demotion propagates one level lower and never visits it, so
  // mcd stays one too high and a demotion is missed. The window is two
  // stores wide; oversubscribing the team lets workers be preempted
  // inside it. The workload is the sweep case (rmat, seed 2) that
  // exposed it.
  test::Workload w = test::make_workload(Family::kRmat, 500, 0.3, 2);
  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  constexpr int kWorkers = 32;
  ThreadTeam team(kWorkers);
  for (int rep = 0; rep < 400; ++rep) {
    auto g = DynamicGraph::from_edges(w.n, all);
    ParallelOrderMaintainer m(g, team);
    m.remove_batch(w.batch, kWorkers);
    std::string err;
    ASSERT_TRUE(m.state().check_invariants(g, &err))
        << "rep " << rep << ": " << err;
    ASSERT_TRUE(verify_cores(g, m.cores(), &err))
        << "rep " << rep << ": " << err;
  }
}

TEST(ParallelRemove, AgreesWithSequentialOrderMaintainer) {
  test::Workload w = test::make_workload(Family::kRmat, 400, 0.25, 55);
  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  auto g1 = DynamicGraph::from_edges(w.n, all);
  auto g2 = DynamicGraph::from_edges(w.n, all);
  ThreadTeam team(4);
  ParallelOrderMaintainer par(g1, team);
  SeqOrderMaintainer seq(g2);
  par.remove_batch(w.batch, 4);
  seq.remove_batch(w.batch);
  EXPECT_EQ(par.cores(), seq.cores());
}

TEST(ParallelRemove, CliqueCascadeContention) {
  // Removing spokes of a near-clique triggers overlapping cascades at
  // one level — the deadlock-avoidance stress case.
  auto edges = gen_clique(24);
  auto g = DynamicGraph::from_edges(24, edges);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  Rng rng(3);
  auto batch = sample_edges(g, 120, rng);
  BatchResult r = m.remove_batch(batch, 8);
  EXPECT_EQ(r.applied, batch.size());
  test::expect_cores_match(g, m.cores(), "clique cascade");
  expect_state_ok(m, "clique cascade");
}

TEST(ParallelRemove, BaUniformCoreCascades) {
  // BA graphs have one core value: every removal works in the same
  // level, stressing the conditional-lock protocol.
  Rng rng(9);
  auto edges = gen_barabasi_albert(500, 4, rng);
  auto g = DynamicGraph::from_edges(500, edges);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  auto batch = sample_edges(g, 400, rng);
  BatchResult r = m.remove_batch(batch, 8);
  EXPECT_EQ(r.applied, batch.size());
  test::expect_cores_match(g, m.cores(), "ba cascades");
  expect_state_ok(m, "ba cascades");
}

TEST(ParallelRemove, CollectStatsHistogramsCover) {
  test::Workload w = test::make_workload(Family::kBa, 300, 0.2, 13);
  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  auto g = DynamicGraph::from_edges(w.n, all);
  ThreadTeam team(4);
  ParallelOrderMaintainer::Options opts;
  opts.collect_stats = true;
  ParallelOrderMaintainer m(g, team, opts);
  m.remove_batch(w.batch, 4);
  EXPECT_EQ(m.remove_vstar_histogram().total(), w.batch.size());
}

// Every edge of these batches shares vertex 0, so racing workers find
// the hub locked and set edges aside for their blocking drain
// (DESIGN.md §9); the drained edges must land exactly as the rest.
DynamicGraph hub_graph(const test::Workload& w) {
  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  return DynamicGraph::from_edges(w.n, all);
}

TEST(ParallelRemove, HubOnlyBatchRemoveThenInsert) {
  const test::Workload w = test::hub_workload(2000, 1500, 61);
  for (int workers : {4, 8}) {
    const std::string ctx = std::to_string(workers) + " workers";
    auto g = hub_graph(w);
    ThreadTeam team(workers);
    ParallelOrderMaintainer m(g, team);
    BatchResult rem = m.remove_batch(w.batch, workers);
    EXPECT_EQ(rem.applied, w.batch.size()) << ctx;
    EXPECT_LE(m.last_timing().deferred, w.batch.size()) << ctx;
    EXPECT_EQ(m.cores(), bz_decompose(g).core) << ctx << " remove";
    expect_state_ok(m, ctx + " remove");
    BatchResult ins = m.insert_batch(w.batch, workers);
    EXPECT_EQ(ins.applied, w.batch.size()) << ctx;
    EXPECT_EQ(m.cores(), bz_decompose(g).core) << ctx << " insert";
    expect_state_ok(m, ctx + " insert");
  }
}

TEST(ParallelRemove, DuplicatedHubEdgesApplyOnce) {
  // Each edge twice, once per orientation: whichever copy is deferred,
  // exactly one of the two applies.
  const test::Workload w = test::hub_workload(400, 200, 67);
  std::vector<Edge> batch = w.batch;
  for (const Edge& e : w.batch) batch.push_back(Edge{e.v, e.u});
  auto g = hub_graph(w);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.remove_batch(batch, 4);
  EXPECT_EQ(r.applied, w.batch.size());
  EXPECT_EQ(r.skipped, w.batch.size());
  EXPECT_EQ(g.num_edges(), w.base.size());
  EXPECT_EQ(m.cores(), bz_decompose(g).core);
  expect_state_ok(m, "duplicated hub edges");
}

TEST(ParallelRemove, HeldHubForcesBlockingDrain) {
  // The test holds the hub's lock, so every edge claimed meanwhile is
  // deferred; the batch can finish only through the blocking drain.
  const test::Workload w = test::hub_workload(400, 200, 73);
  auto g = hub_graph(w);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  BatchResult r;
  test::run_while_locked(m.state().lock(0),
                         [&] { r = m.remove_batch(w.batch, 4); });
  EXPECT_EQ(r.applied, w.batch.size());
  EXPECT_GT(m.last_timing().deferred, 0u);
  EXPECT_LE(m.last_timing().deferred, w.batch.size());
  EXPECT_EQ(m.cores(), bz_decompose(g).core);
  expect_state_ok(m, "held hub");
}

TEST(ParallelRemove, SingleWorkerNeverDefers) {
  // With one worker no other thread can hold an endpoint lock.
  const test::Workload w = test::hub_workload(400, 200, 71);
  auto g = hub_graph(w);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.remove_batch(w.batch, 1);
  EXPECT_EQ(r.applied, w.batch.size());
  EXPECT_EQ(m.last_timing().deferred, 0u);
  EXPECT_EQ(m.cores(), bz_decompose(g).core);
}

}  // namespace
}  // namespace parcore
