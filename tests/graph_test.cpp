#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/edge_list.h"
#include "support/rng.h"
#include "test_util.h"

namespace parcore {
namespace {

TEST(DynamicGraph, InsertAndQuery) {
  DynamicGraph g(4);
  EXPECT_TRUE(g.insert_edge(0, 1));
  EXPECT_TRUE(g.insert_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(DynamicGraph, RejectsSelfLoopsAndDuplicates) {
  DynamicGraph g(3);
  EXPECT_FALSE(g.insert_edge(1, 1));
  EXPECT_TRUE(g.insert_edge(0, 1));
  EXPECT_FALSE(g.insert_edge(0, 1));
  EXPECT_FALSE(g.insert_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DynamicGraph, RejectsOutOfRange) {
  DynamicGraph g(3);
  EXPECT_FALSE(g.insert_edge(0, 3));
  EXPECT_FALSE(g.insert_edge(7, 8));
}

TEST(DynamicGraph, RemoveEdge) {
  DynamicGraph g(3);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(DynamicGraph, FromEdgesDeduplicates) {
  std::vector<Edge> edges{{0, 1}, {1, 0}, {1, 1}, {1, 2}, {0, 1}};
  DynamicGraph g = DynamicGraph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(DynamicGraph, EdgesRoundTrip) {
  auto g = test::make_graph(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  auto edges = g.edges();
  EXPECT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) {
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(DynamicGraph, DegreeStatistics) {
  auto g = test::make_graph(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 3.0 / 4.0);  // m / n per Table 2
}

TEST(DynamicGraph, AddVerticesGrows) {
  DynamicGraph g(2);
  g.add_vertices(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_TRUE(g.insert_edge(3, 4));
  g.add_vertices(3);  // shrink request ignored
  EXPECT_EQ(g.num_vertices(), 5u);
}

// The prefix/rest split of each adjacency list (DESIGN.md §3.1): the
// graph keeps it through appends, erases, growth, copies and moves.
std::vector<VertexId> sorted(std::span<const VertexId> s) {
  std::vector<VertexId> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<VertexId> evens_of(std::span<const VertexId> s) {
  std::vector<VertexId> v;
  for (VertexId x : s)
    if (x % 2 == 0) v.push_back(x);
  std::sort(v.begin(), v.end());
  return v;
}

bool even(VertexId x) { return x % 2 == 0; }

// A hub 0 joined to 1..n-1, partitioned so the even neighbours form
// its prefix.
DynamicGraph even_prefix_hub(std::size_t n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back(Edge{0, v});
  auto g = DynamicGraph::from_edges(n, edges);
  EXPECT_EQ(g.prefix(0).size(), 0u);  // a fresh graph has empty prefixes
  g.repartition(0, even);
  return g;
}

TEST(DynamicGraph, RepartitionMovesKeptEntriesToThePrefix) {
  auto g = even_prefix_hub(40);
  EXPECT_EQ(sorted(g.prefix(0)), evens_of(g.neighbors(0)));
  EXPECT_EQ(g.prefix(0).size(), 19u);  // 2, 4, ..., 38
  // Each entry is offered exactly once, in list order.
  std::vector<VertexId> offered;
  const std::vector<VertexId> before(g.neighbors(0).begin(),
                                     g.neighbors(0).end());
  g.repartition(0, [&](VertexId x) {
    offered.push_back(x);
    return even(x);
  });
  EXPECT_EQ(offered, before);
}

TEST(DynamicGraph, AppendIntoThePrefix) {
  // Hub 0 spills into a slab and regrows several times; an inline
  // vertex (degree <= 4) gets the same treatment.
  DynamicGraph g(80);
  for (VertexId v = 1; v < 80; ++v) {
    g.insert_edge_unchecked(0, v, /*v_in_prefix_of_u=*/even(v),
                            /*u_in_prefix_of_v=*/v % 3 == 0);
    ASSERT_EQ(sorted(g.prefix(0)), evens_of(g.neighbors(0))) << "after " << v;
    EXPECT_EQ(g.prefix(v).size(), v % 3 == 0 ? 1u : 0u);
  }
  EXPECT_EQ(g.degree(0), 79u);
  EXPECT_EQ(g.num_edges(), 79u);
  // The plain insert never joins a prefix.
  DynamicGraph h(3);
  ASSERT_TRUE(h.insert_edge(0, 1));
  EXPECT_EQ(h.prefix(0).size(), 0u);
  EXPECT_EQ(h.prefix(1).size(), 0u);
}

TEST(DynamicGraph, RemoveEdgeKeepsThePartition) {
  auto g = even_prefix_hub(60);
  Rng rng(5);
  std::vector<VertexId> left;
  for (VertexId v = 1; v < 60; ++v) left.push_back(v);
  rng.shuffle(left);
  // Erase from both parts, down past the inline threshold to empty.
  for (VertexId v : left) {
    ASSERT_TRUE(g.remove_edge(0, v));
    EXPECT_FALSE(g.has_edge(0, v));
    ASSERT_EQ(sorted(g.prefix(0)), evens_of(g.neighbors(0)))
        << "after erasing " << v;
  }
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.prefix(0).size(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DynamicGraph, CopyAndMoveKeepThePrefix) {
  const auto g = even_prefix_hub(50);
  const std::vector<VertexId> list(g.neighbors(0).begin(),
                                   g.neighbors(0).end());
  const std::size_t hi = g.prefix(0).size();
  auto same = [&](const DynamicGraph& c) {
    EXPECT_EQ(std::vector<VertexId>(c.neighbors(0).begin(),
                                    c.neighbors(0).end()),
              list);
    EXPECT_EQ(c.prefix(0).size(), hi);
  };
  DynamicGraph copy(g);
  same(copy);
  DynamicGraph assigned(3);
  assigned = g;
  same(assigned);
  DynamicGraph moved(std::move(copy));
  same(moved);
  DynamicGraph move_assigned(2);
  move_assigned = std::move(assigned);
  same(move_assigned);
}

TEST(EdgeList, CanonicalizeDropsBadEdges) {
  std::vector<Edge> edges{{0, 1}, {1, 0}, {2, 2}, {3, 4}, {0, 1}};
  EXPECT_EQ(canonicalize_edges(edges), 3u);
  EXPECT_EQ(edges.size(), 2u);
}

TEST(EdgeList, SampleEdgesDistinctAndPresent) {
  Rng rng(3);
  std::vector<Edge> base;
  for (VertexId v = 0; v + 1 < 100; ++v)
    base.push_back(Edge{v, static_cast<VertexId>(v + 1)});
  DynamicGraph g = DynamicGraph::from_edges(100, base);
  auto sample = sample_edges(g, 25, rng);
  EXPECT_EQ(sample.size(), 25u);
  std::set<std::uint64_t> keys;
  for (const Edge& e : sample) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    EXPECT_TRUE(keys.insert(edge_key(e)).second);
  }
}

TEST(EdgeList, SampleClampsToEdgeCount) {
  Rng rng(3);
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(sample_edges(g, 100, rng).size(), 2u);
}

TEST(EdgeList, SplitBatchesEven) {
  std::vector<Edge> edges(10, Edge{0, 1});
  auto parts = split_batches(edges, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size() + parts[1].size() + parts[2].size(), 10u);
  EXPECT_EQ(parts[0].size(), 4u);
}

TEST(EdgeList, FileRoundTrip) {
  EdgeListData data;
  data.num_vertices = 4;
  data.has_timestamps = true;
  data.edges = {{{0, 1}, 10}, {{1, 2}, 20}, {{2, 3}, 30}};
  const std::string path = testing::TempDir() + "/parcore_edges.txt";
  save_edge_list(path, data);
  EdgeListData loaded = load_edge_list(path);
  ASSERT_EQ(loaded.edges.size(), 3u);
  EXPECT_TRUE(loaded.has_timestamps);
  EXPECT_EQ(loaded.edges[1].time, 20u);
  std::remove(path.c_str());
}

TEST(EdgeList, LoadSkipsComments) {
  const std::string path = testing::TempDir() + "/parcore_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# comment\n% other\n10 20\n30 40\n", f);
  std::fclose(f);
  EdgeListData loaded = load_edge_list(path);
  EXPECT_EQ(loaded.edges.size(), 2u);
  EXPECT_EQ(loaded.num_vertices, 4u);  // compacted ids
  EXPECT_FALSE(loaded.has_timestamps);
  std::remove(path.c_str());
}

TEST(EdgeList, LoadMissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/parcore.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace parcore
