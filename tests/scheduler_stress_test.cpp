// Batch dispatch convergence: racing workers claiming edges off the
// shared counter must drive cores to exactly a fresh bz_decompose on
// insert, remove, mixed, hub-heavy and repeated small batches, with the
// k-order invariants intact afterwards. CI runs this file under both
// TSan and ASan and repeats it in the maintainer stress step.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "decomp/bz.h"
#include "gen/generators.h"
#include "graph/edge_list.h"
#include "parallel/parallel_order.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

TEST(SchedulerStress, InsertBatchConverges) {
  test::Workload w = test::make_workload(Family::kRmat, 600, 0.35, 19);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.insert_batch(w.batch, 8);
  EXPECT_EQ(r.applied, w.batch.size());
  test::expect_cores_match(g, m.cores(), "insert");
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err)) << err;
}

TEST(SchedulerStress, RemoveBatchConverges) {
  test::Workload w = test::make_workload(Family::kEr, 500, 0.4, 23);
  // Remove from the full graph so the batch edges all exist.
  std::vector<Edge> all = w.base;
  all.insert(all.end(), w.batch.begin(), w.batch.end());
  auto g = DynamicGraph::from_edges(w.n, all);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  BatchResult r = m.remove_batch(w.batch, 8);
  EXPECT_EQ(r.applied, w.batch.size());
  test::expect_cores_match(g, m.cores(), "remove");
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err)) << err;
}

TEST(SchedulerStress, MixedAlternatingBatchesConverge) {
  test::Workload w = test::make_workload(Family::kBa, 500, 0.4, 31);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  auto parts = split_batches(w.batch, 6);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    m.insert_batch(parts[i], 8);
    if (i % 2 == 1) m.remove_batch(parts[i - 1], 8);
  }
  test::expect_cores_match(g, m.cores(), "mixed");
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err, /*check_cores=*/true))
      << err;
}

TEST(SchedulerStress, HubHeavyBatchConverges) {
  // A handful of hubs own most batch edges, so 8 racing workers keep
  // colliding on the same endpoint locks; final cores must still match
  // bz_decompose after the insert and after removing it again.
  Rng rng(77);
  std::vector<Edge> base = gen_erdos_renyi(800, 2400, rng);
  canonicalize_edges(base);
  std::set<std::uint64_t> have;
  for (const Edge& e : base) have.insert(edge_key(e));
  std::vector<Edge> batch;
  for (VertexId hub = 0; hub < 8; ++hub) {
    for (int i = 0; i < 60; ++i) {
      const Edge e = canonical(
          Edge{hub, static_cast<VertexId>(8 + rng.bounded(792))});
      if (e.u != e.v && have.insert(edge_key(e)).second) batch.push_back(e);
    }
  }
  auto g = DynamicGraph::from_edges(800, base);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  BatchResult ins = m.insert_batch(batch, 8);
  EXPECT_EQ(ins.applied, batch.size());
  test::expect_cores_match(g, m.cores(), "hub insert");
  BatchResult rem = m.remove_batch(batch, 8);
  EXPECT_EQ(rem.applied, batch.size());
  test::expect_cores_match(g, m.cores(), "hub remove");
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err)) << err;
}

TEST(SchedulerStress, RepeatedSmallBatchesReuseScratch) {
  // Steady-state flush shape: many small batches through one maintainer
  // (per-worker and repair buffers must reset correctly per batch).
  test::Workload w = test::make_workload(Family::kRmat, 400, 0.5, 43);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  auto parts = split_batches(w.batch, 10);
  for (int round = 0; round < 10; ++round) {
    m.insert_batch(parts[static_cast<std::size_t>(round)], 8);
    m.remove_batch(parts[static_cast<std::size_t>(round)], 8);
  }
  test::expect_cores_match(g, m.cores(), "steady state");
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err, /*check_cores=*/true))
      << err;
}

}  // namespace
}  // namespace parcore
