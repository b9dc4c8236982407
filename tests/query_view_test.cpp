// ISSUE 5: the paged copy-on-write core index (query/versioned_cores.h)
// and the CoreView-ported query surface. Three layers:
//   1. VersionedCoreIndex mechanics — full rebuild, dirty-page-only
//      cloning, page sharing across epochs, immutability of held views;
//   2. engine integration — publication cost (pages cloned) tracking
//      the batch, not n;
//   3. the differential contract — every ported core_query function is
//      bit-identical on a CoreView vs the materialized vector across
//      randomized insert/remove epochs, and both match ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "decomp/bz.h"
#include "decomp/core_query.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "graph/edge_list.h"
#include "query/versioned_cores.h"
#include "test_util.h"

namespace parcore {
namespace {

using engine::StreamingEngine;
using query::CoreView;
using query::VersionedCoreIndex;

// ------------------------------------------------- index mechanics

TEST(VersionedCoreIndex, RebuildMatchesSource) {
  const std::size_t n = 10000;
  VersionedCoreIndex index(VersionedCoreIndex::Options{256});
  CoreView view =
      index.rebuild(n, [](VertexId v) { return static_cast<CoreValue>(v % 7); });
  ASSERT_EQ(view.size(), n);
  EXPECT_EQ(view.page_size(), 256u);
  EXPECT_EQ(view.page_count(), (n + 255) / 256);
  EXPECT_EQ(index.last_pages_cloned(), view.page_count());
  for (VertexId v = 0; v < n; ++v)
    ASSERT_EQ(view.core(v), static_cast<CoreValue>(v % 7)) << v;
  // Out-of-range reads are 0, not UB (engine snapshot semantics).
  EXPECT_EQ(view.core(static_cast<VertexId>(n)), 0);
  EXPECT_EQ(view.core(kInvalidVertex), 0);
  const std::vector<CoreValue> flat = view.materialize();
  ASSERT_EQ(flat.size(), n);
  for (VertexId v = 0; v < n; ++v) ASSERT_EQ(flat[v], view.core(v));
}

TEST(VersionedCoreIndex, PublishClonesOnlyDirtyPages) {
  const std::size_t n = 1000;  // 4 pages of 256 (last one partial)
  std::vector<CoreValue> source(n, 1);
  VersionedCoreIndex index(VersionedCoreIndex::Options{256});
  CoreView before = index.rebuild(n, [&](VertexId v) { return source[v]; });

  source[5] = 9;    // page 0
  source[600] = 9;  // page 2
  const std::vector<VertexId> dirty{5, 600};
  CoreView after = index.publish(dirty, [&](VertexId v) { return source[v]; });

  EXPECT_EQ(index.last_pages_cloned(), 2u);
  // Dirty pages were cloned; clean pages are shared with the old epoch.
  EXPECT_NE(after.page_identity(5), before.page_identity(5));
  EXPECT_NE(after.page_identity(600), before.page_identity(600));
  EXPECT_EQ(after.page_identity(300), before.page_identity(300));  // page 1
  EXPECT_EQ(after.page_identity(900), before.page_identity(900));  // page 3
  // New values visible in the new view only; the held view is frozen.
  EXPECT_EQ(after.core(5), 9);
  EXPECT_EQ(after.core(600), 9);
  EXPECT_EQ(before.core(5), 1);
  EXPECT_EQ(before.core(600), 1);
  // Untouched entries on a cloned page carried over.
  EXPECT_EQ(after.core(6), 1);
  EXPECT_EQ(after.core(601), 1);
}

TEST(VersionedCoreIndex, EmptyDirtySharesTheWholeView) {
  VersionedCoreIndex index(VersionedCoreIndex::Options{64});
  CoreView a = index.rebuild(300, [](VertexId) { return 2; });
  CoreView b = index.publish({}, [](VertexId) { return 3; });
  EXPECT_EQ(index.last_pages_cloned(), 0u);
  for (VertexId v = 0; v < 300; ++v) ASSERT_EQ(b.core(v), 2);
  EXPECT_EQ(a.page_identity(0), b.page_identity(0));
}

TEST(VersionedCoreIndex, DuplicateAndOutOfRangeDirtyTolerated) {
  std::vector<CoreValue> source(200, 0);
  VersionedCoreIndex index(VersionedCoreIndex::Options{64});
  index.rebuild(source.size(), [&](VertexId v) { return source[v]; });
  source[10] = 5;
  const std::vector<VertexId> dirty{10, 10, 10, 5000, kInvalidVertex};
  CoreView view = index.publish(dirty, [&](VertexId v) { return source[v]; });
  EXPECT_EQ(index.last_pages_cloned(), 1u);
  EXPECT_EQ(view.core(10), 5);
  EXPECT_EQ(view.size(), 200u);
}

TEST(VersionedCoreIndex, PageSizeClampsAndRoundsToPowerOfTwo) {
  VersionedCoreIndex a(VersionedCoreIndex::Options{1000});
  EXPECT_EQ(a.page_size(), 1024u);
  VersionedCoreIndex b(VersionedCoreIndex::Options{1});
  EXPECT_EQ(b.page_size(), VersionedCoreIndex::kMinPageSize);
  VersionedCoreIndex c(VersionedCoreIndex::Options{std::size_t{1} << 30});
  EXPECT_EQ(c.page_size(), VersionedCoreIndex::kMaxPageSize);
}

TEST(VersionedCoreIndex, ZeroVertices) {
  VersionedCoreIndex index;
  CoreView view = index.rebuild(0, [](VertexId) { return 0; });
  EXPECT_EQ(view.size(), 0u);
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(view.materialize().empty());
  EXPECT_EQ(view.core(0), 0);
  CoreView next = index.publish({}, [](VertexId) { return 0; });
  EXPECT_EQ(next.size(), 0u);
}

// --------------------------------------------- engine integration

// The reason the index exists: publication must cost pages-touched,
// not n. A one-edge flush on a 100k-vertex graph may clone at most the
// pages its |V*| lives on — never the whole directory again.
TEST(QueryView, PublicationCostTracksBatchNotN) {
  const std::size_t n = 100000;
  // Path graph: every vertex core 1; closing one triangle promotes
  // exactly 3 vertices (one snapshot page).
  std::vector<Edge> path;
  path.reserve(n - 1);
  for (VertexId v = 0; v + 1 < n; ++v) path.push_back(Edge{v, v + 1});
  auto g = DynamicGraph::from_edges(n, path);
  ThreadTeam team(2);
  StreamingEngine::Options opts;  // default 4096-core pages
  StreamingEngine eng(g, team, opts);

  const std::uint64_t full_build = eng.stats().publish_pages_cloned.sum;
  EXPECT_EQ(full_build, (n + 4095) / 4096);  // epoch 0 builds every page

  eng.submit_insert(0, 2);  // triangle 0-1-2: cores {0,1,2} -> 2
  eng.flush_now();
  const std::uint64_t after = eng.stats().publish_pages_cloned.sum;
  EXPECT_EQ(after - full_build, 1u);  // all three promotions on page 0
  EXPECT_EQ(eng.snapshot()->view.core(1), 2);
  EXPECT_EQ(eng.snapshot()->view.core(50000), 1);

  // A flush that changes nothing (duplicate insert) clones nothing.
  eng.submit_insert(0, 2);
  eng.flush_now();
  EXPECT_EQ(eng.stats().publish_pages_cloned.sum, after);
}

TEST(QueryView, HeldEpochsStayImmutableAndSharePages) {
  test::Workload w = test::make_workload(test::Family::kRmat, 2000, 0.3, 91);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.snapshot_page = 64;  // force many pages at this n
  StreamingEngine eng(g, team, opts);

  auto held = eng.snapshot();
  const std::vector<CoreValue> held_copy = held->materialize();

  // A small flush: only the touched pages may be cloned, the rest must
  // be shared with the held epoch.
  const std::size_t small = std::min<std::size_t>(w.batch.size(), 48);
  for (std::size_t i = 0; i < small; ++i)
    eng.submit_insert(w.batch[i].u, w.batch[i].v);
  eng.flush_now();
  auto latest = eng.snapshot();

  // The held epoch is frozen even though later epochs share its clean
  // pages in place.
  EXPECT_EQ(held->materialize(), held_copy);
  std::size_t shared = 0;
  for (VertexId v = 0; v < w.n; v += 64)
    if (latest->view.page_identity(v) == held->view.page_identity(v))
      ++shared;
  EXPECT_GT(shared, 0u) << "no page sharing between epochs at all";
  test::expect_cores_match(g, latest->materialize(), "latest epoch");
}

// ------------------------------------------------ differential suite

void expect_summary_eq(const CoreSummary& a, const CoreSummary& b,
                       const char* context) {
  EXPECT_EQ(a.max_core, b.max_core) << context;
  EXPECT_EQ(a.degeneracy_core_size, b.degeneracy_core_size) << context;
  EXPECT_EQ(a.histogram, b.histogram) << context;
}

// Every ported core_query function must return bit-identical results on
// the CoreView vs the materialized flat vector, across randomized
// insert/remove epochs — and both must match a fresh decomposition of
// the epoch's graph snapshot.
TEST(QueryView, PortedQueriesBitIdenticalOnViewAndVector) {
  Rng rng(133);
  const std::size_t n = 500;
  auto candidates = gen_erdos_renyi(n, 2000, rng);
  canonicalize_edges(candidates);
  auto g = DynamicGraph::from_edges(
      n, std::span<const Edge>(candidates.data(), candidates.size() / 2));
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.snapshot_page = 64;  // multiple pages, partial tail page
  opts.snapshot_graph = true;
  opts.workers = 2;
  StreamingEngine eng(g, team, opts);

  Rng prng(57);
  auto stream = gen_update_stream(candidates, 6000, 0.45, 0.6, prng);
  const std::size_t chunk = 500;

  for (std::size_t at = 0; at < stream.size(); at += chunk) {
    const std::size_t hi = std::min(stream.size(), at + chunk);
    for (std::size_t i = at; i < hi; ++i) eng.submit(stream[i]);
    eng.flush_now();

    auto snap = eng.snapshot();
    const CoreView& view = snap->view;
    const std::vector<CoreValue> vec = snap->materialize();
    ASSERT_EQ(vec.size(), n);

    // Ground truth: the epoch's own graph copy, freshly decomposed.
    ASSERT_NE(snap->graph, nullptr);
    const Decomposition fresh = bz_decompose(*snap->graph);
    ASSERT_EQ(vec, fresh.core) << "epoch " << snap->epoch;

    expect_summary_eq(summarize_cores(view), summarize_cores(vec),
                      "summarize_cores");
    const CoreSummary summary = summarize_cores(vec);
    for (CoreValue k = 0; k <= summary.max_core + 1; ++k)
      ASSERT_EQ(k_core_members(view, k), k_core_members(vec, k))
          << "k_core_members k=" << k;
    for (VertexId u = 0; u < n; u += 37)
      ASSERT_EQ(subcore_of(*snap->graph, view, u),
                subcore_of(*snap->graph, vec, u))
          << "subcore_of u=" << u;
    ASSERT_EQ(all_subcores(*snap->graph, view),
              all_subcores(*snap->graph, vec));
    for (CoreValue k = 1; k <= summary.max_core; ++k) {
      std::vector<VertexId> map_view, map_vec;
      DynamicGraph sub_view = k_core_subgraph(*snap->graph, view, k, &map_view);
      DynamicGraph sub_vec = k_core_subgraph(*snap->graph, vec, k, &map_vec);
      ASSERT_EQ(sub_view.num_vertices(), sub_vec.num_vertices()) << k;
      ASSERT_EQ(sub_view.num_edges(), sub_vec.num_edges()) << k;
      ASSERT_EQ(map_view, map_vec) << k;
    }
  }
}

}  // namespace
}  // namespace parcore
