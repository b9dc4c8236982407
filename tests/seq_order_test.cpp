// Differential tests for the sequential Simplified-Order maintainer.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>

#include "gen/generators.h"
#include "graph/edge_list.h"
#include "maint/seq_order.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

void expect_state_ok(SeqOrderMaintainer& m, const std::string& ctx) {
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(m.graph(), &err)) << ctx << ": "
                                                           << err;
}

TEST(SeqOrderInsert, TriangleCompletionRaisesCore) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  SeqOrderMaintainer m(g);
  EXPECT_EQ(m.core(0), 1);
  ASSERT_TRUE(m.insert_edge(0, 2));
  EXPECT_EQ(m.core(0), 2);
  EXPECT_EQ(m.core(1), 2);
  EXPECT_EQ(m.core(2), 2);
  expect_state_ok(m, "triangle");
}

TEST(SeqOrderInsert, PaperFigure2Example) {
  // Figure 2(a): v (core 1) attached to a 2-core of u1..u5; inserting
  // e1=(v,u2), e2=(u2,u3), e3=(u1,u4) lifts everything as in Fig. 2(c).
  // Vertex ids: v=0, u1..u5 = 1..5. Initial edges form the DAG of Fig 2a:
  auto g = test::make_graph(
      6, {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {3, 5}, {4, 5}, {1, 5}});
  SeqOrderMaintainer m(g);
  ASSERT_EQ(m.core(0), 1);
  for (VertexId u = 1; u <= 5; ++u) ASSERT_EQ(m.core(u), 2) << u;

  ASSERT_TRUE(m.insert_edge(0, 2));  // e1: v-u2 -> v.core 1 -> 2
  EXPECT_EQ(m.core(0), 2);
  ASSERT_TRUE(m.insert_edge(2, 3));  // e2: u2-u3 -> no core change yet
  test::expect_cores_match(m.graph(), m.cores(), "after e2");
  ASSERT_TRUE(m.insert_edge(1, 4));  // e3: u1-u4 -> u1..u5 reach core 3
  test::expect_cores_match(m.graph(), m.cores(), "after e3");
  expect_state_ok(m, "figure2");
}

void expect_insert_case(const test::InsertCase& c, const std::string& ctx) {
  auto g = DynamicGraph::from_edges(c.n, c.edges);
  SeqOrderMaintainer m(g);
  ASSERT_TRUE(m.insert_edge(c.insert.u, c.insert.v));
  EXPECT_EQ(m.cores(), c.cores_after) << ctx;
  test::expect_cores_match(g, m.cores(), ctx);
  expect_state_ok(m, ctx);
}

TEST(SeqOrderInsert, BackwardOriginKeepsQueuedSuccessorCount) {
  expect_insert_case(test::backward_origin_case(), "backward origin");
}

TEST(SeqOrderInsert, EvictedPredecessorUncountsQueuedCandidate) {
  expect_insert_case(test::evicted_predecessor_case(), "evicted predecessor");
}

TEST(SeqOrderInsert, RejectsBadEdges) {
  auto g = test::make_graph(3, {{0, 1}});
  SeqOrderMaintainer m(g);
  EXPECT_FALSE(m.insert_edge(0, 0));
  EXPECT_FALSE(m.insert_edge(0, 1));
  EXPECT_FALSE(m.insert_edge(0, 9));
  EXPECT_EQ(m.graph().num_edges(), 1u);
}

TEST(SeqOrderInsert, IsolatedVertexGainsEdge) {
  auto g = test::make_graph(4, {{0, 1}});
  SeqOrderMaintainer m(g);
  ASSERT_TRUE(m.insert_edge(2, 3));
  EXPECT_EQ(m.core(2), 1);
  EXPECT_EQ(m.core(3), 1);
  expect_state_ok(m, "isolated");
}

TEST(SeqOrderInsert, GrowCliqueEdgeByEdge) {
  DynamicGraph g(8);
  SeqOrderMaintainer m(g);
  for (VertexId u = 0; u < 8; ++u)
    for (VertexId v = u + 1; v < 8; ++v) {
      ASSERT_TRUE(m.insert_edge(u, v));
      test::expect_cores_match(m.graph(), m.cores(),
                               "clique edge " + std::to_string(u) + "-" +
                                   std::to_string(v));
    }
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(m.core(v), 7);
  expect_state_ok(m, "clique");
}

TEST(SeqOrderRemove, TriangleEdgeDropsCore) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  SeqOrderMaintainer m(g);
  ASSERT_TRUE(m.remove_edge(0, 2));
  EXPECT_EQ(m.core(0), 1);
  EXPECT_EQ(m.core(1), 1);
  EXPECT_EQ(m.core(2), 1);
  expect_state_ok(m, "triangle-remove");
}

TEST(SeqOrderRemove, PaperFigure3Example) {
  // Figure 3(a): v (core 2) + u1..u5 (core 3); removing e1=(v,u2),
  // e2=(u2,u3), e3=(u1,u4) drops all cores by one.
  // Build: u1..u5 = 1..5 nearly complete (3-core), v=0 with two edges.
  auto g = test::make_graph(6, {{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 5},
                                {3, 4}, {4, 5}, {1, 5}, {0, 2}, {0, 3}});
  SeqOrderMaintainer m(g);
  ASSERT_EQ(m.core(0), 2);
  for (VertexId u = 1; u <= 5; ++u) ASSERT_EQ(m.core(u), 3) << u;

  ASSERT_TRUE(m.remove_edge(0, 2));  // e1: v drops to 1
  test::expect_cores_match(m.graph(), m.cores(), "after e1");
  ASSERT_TRUE(m.remove_edge(2, 3));  // e2: u1..u5 drop to 2
  test::expect_cores_match(m.graph(), m.cores(), "after e2");
  ASSERT_TRUE(m.remove_edge(1, 4));  // e3: no further change
  test::expect_cores_match(m.graph(), m.cores(), "after e3");
  expect_state_ok(m, "figure3");
}

TEST(SeqOrderRemove, MissingEdgeRejected) {
  auto g = test::make_graph(3, {{0, 1}});
  SeqOrderMaintainer m(g);
  EXPECT_FALSE(m.remove_edge(1, 2));
  EXPECT_FALSE(m.remove_edge(0, 0));
}

TEST(SeqOrderRemove, DrainGraphToEmpty) {
  Rng rng(21);
  auto edges = gen_erdos_renyi(60, 200, rng);
  auto g = DynamicGraph::from_edges(60, edges);
  SeqOrderMaintainer m(g);
  for (const Edge& e : edges) {
    ASSERT_TRUE(m.remove_edge(e.u, e.v));
  }
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 60; ++v) EXPECT_EQ(m.core(v), 0);
  expect_state_ok(m, "drained");
}

TEST(SeqOrderMixed, InsertThenRemoveRestoresCores) {
  test::Workload w = test::make_workload(Family::kEr, 300, 0.2, 77);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  SeqOrderMaintainer m(g);
  auto before = m.cores();
  EXPECT_EQ(m.insert_batch(w.batch), w.batch.size());
  test::expect_cores_match(g, m.cores(), "after insert batch");
  EXPECT_EQ(m.remove_batch(w.batch), w.batch.size());
  EXPECT_EQ(m.cores(), before);
  expect_state_ok(m, "roundtrip");
}

// The third parameter removes through remove_batch, in batches of 7,
// so its single batch-end d+out repair is checked too.
class SeqDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<Family, std::uint64_t, bool>> {};

TEST_P(SeqDifferentialTest, RandomOpsAgainstBruteForce) {
  auto [family, seed, batched] = GetParam();
  test::Workload w = test::make_workload(family, 220, 0.3, seed);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  SeqOrderMaintainer m(g);

  // Insert the batch one edge at a time, verifying after each.
  for (std::size_t i = 0; i < w.batch.size(); ++i) {
    ASSERT_TRUE(m.insert_edge(w.batch[i].u, w.batch[i].v));
    if (i % 7 == 0)
      test::expect_cores_match(g, m.cores(),
                               "insert #" + std::to_string(i));
  }
  test::expect_cores_match(g, m.cores(), "insert end");
  expect_state_ok(m, "insert end");

  // Remove them in a shuffled order.
  Rng rng(seed ^ 0xbeef);
  auto batch = w.batch;
  rng.shuffle(batch);
  if (batched) {
    for (std::size_t i = 0; i < batch.size(); i += 7) {
      const std::size_t len = std::min<std::size_t>(7, batch.size() - i);
      ASSERT_EQ(m.remove_batch(std::span(batch).subspan(i, len)), len);
      test::expect_cores_match(g, m.cores(),
                               "remove batch at #" + std::to_string(i));
      expect_state_ok(m, "remove batch at #" + std::to_string(i));
    }
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(m.remove_edge(batch[i].u, batch[i].v));
      if (i % 7 == 0)
        test::expect_cores_match(g, m.cores(),
                                 "remove #" + std::to_string(i));
    }
  }
  test::expect_cores_match(g, m.cores(), "remove end");
  expect_state_ok(m, "remove end");
}

INSTANTIATE_TEST_SUITE_P(
    Families, SeqDifferentialTest,
    ::testing::Combine(::testing::Values(Family::kEr, Family::kBa,
                                         Family::kRmat, Family::kClique,
                                         Family::kPath),
                       ::testing::Values(1u, 2u, 3u), ::testing::Bool()),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_batch" : "");
    });

}  // namespace
}  // namespace parcore
