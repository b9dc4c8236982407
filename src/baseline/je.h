// JE baseline: join-edge-set style parallel core maintenance after Hua
// et al. [22] — the comparison system of the paper's evaluation (JEI /
// JER). Hua et al.'s source is not available; this is a
// faithful-in-behaviour substitute (DESIGN.md §3.1):
//
//   - the batch is preprocessed into per-core-level edge groups (the
//     "join edge sets");
//   - each group is processed sequentially by a single worker running
//     the Traversal algorithm [18, 20] (mcd + on-the-fly pcd);
//   - workers run concurrently only across levels, holding ordered
//     level-pair locks ({K, K+1} for insertion, {K-1, K} for removal),
//     which confines every write of a level-K operation to the locked
//     levels; reads elsewhere are monotone threshold tests;
//   - edges whose level changed before processing are deferred to the
//     next round.
//
// This preserves exactly the property the paper measures: when all
// vertices share one core number (e.g. the BA graph), JEI/JER collapse
// to sequential execution, while preprocessing adds batch-proportional
// overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/dynamic_graph.h"
#include "support/types.h"
#include "sync/spinlock.h"
#include "sync/thread_team.h"

namespace parcore {

/// Adjacency storage that tolerates concurrent readers during appends
/// and tombstone removals (JE workers at non-adjacent levels touch
/// shared vertices): slots are atomics, sizes publish with release, and
/// removal tombstones instead of compacting, so a reader never misses an
/// unrelated neighbour mid-scan. compact() reclaims tombstones at
/// quiescence.
class JeGraph {
 public:
  void build(const DynamicGraph& g);

  /// Grows per-vertex capacity to absorb `edges` (the preprocessing
  /// pass). Quiescent only.
  void reserve_for(std::span<const Edge> edges);

  /// Reclaims tombstones. Quiescent only.
  void compact();

  std::size_t num_vertices() const { return n_; }
  std::size_t num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }

  bool has_edge(VertexId u, VertexId v) const;
  void append_edge(VertexId u, VertexId v);      // capacity must suffice
  bool tombstone_edge(VertexId u, VertexId v);   // false if absent

  std::size_t live_degree(VertexId u) const {
    return adj_[u].live.load(std::memory_order_relaxed);
  }

  template <typename Fn>
  void for_each_neighbor(VertexId u, Fn&& fn) const {
    const AdjList& list = adj_[u];
    const std::uint32_t size = list.size.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < size; ++i) {
      const VertexId x = list.slots[i].load(std::memory_order_relaxed);
      if (x != kInvalidVertex) fn(x);
    }
  }

 private:
  struct AdjList {
    std::unique_ptr<std::atomic<VertexId>[]> slots;
    std::atomic<std::uint32_t> size{0};
    std::atomic<std::uint32_t> live{0};
    std::uint32_t capacity = 0;
    Spinlock append_lock;
  };

  bool tombstone_in(VertexId u, VertexId v);

  // AdjList is pinned (atomics + lock), so storage is a fixed array.
  std::unique_ptr<AdjList[]> adj_;
  std::size_t n_ = 0;
  std::atomic<std::size_t> num_edges_{0};
};

class JeMaintainer {
 public:
  struct Options {
    /// Cap on rounds before falling back to sequential processing of the
    /// remainder (defensive; classification converges in practice).
    int max_rounds = 1000;
  };

  /// Copies `g` into the internal JeGraph; `g` itself is not mutated.
  JeMaintainer(const DynamicGraph& g, ThreadTeam& team, Options opts);
  JeMaintainer(const DynamicGraph& g, ThreadTeam& team)
      : JeMaintainer(g, team, Options()) {}

  void rebuild(const DynamicGraph& g);

  /// JEI / JER.
  std::size_t insert_batch(std::span<const Edge> edges, int workers);
  std::size_t remove_batch(std::span<const Edge> edges, int workers);

  bool insert_edge(VertexId u, VertexId v);
  bool remove_edge(VertexId u, VertexId v);

  CoreValue core(VertexId v) const {
    return core_[v].load(std::memory_order_relaxed);
  }
  std::vector<CoreValue> cores() const;

  const JeGraph& graph() const { return graph_; }

  /// Rounds run on one worker because a batch outlived
  /// Options::max_rounds, summed over this maintainer's batches.
  std::uint64_t sequential_fallbacks() const { return sequential_fallbacks_; }

 private:
  struct Ctx {
    std::vector<std::uint32_t> visit_mark;
    std::vector<std::uint32_t> evict_mark;
    std::vector<std::uint32_t> vstar_mark;
    std::vector<CoreValue> cd;
    std::uint32_t epoch = 0;
    std::vector<VertexId> stack;
    std::vector<VertexId> estack;        // eviction cascade worklist
    std::vector<VertexId> visited_list;  // insertion: visit order
    std::vector<VertexId> vstar;
    std::vector<Edge> residual;

    void ensure(std::size_t n);
    void begin_op();
    bool visited(VertexId v) const { return visit_mark[v] == epoch; }
    bool evicted(VertexId v) const { return evict_mark[v] == epoch; }
    bool in_vstar(VertexId v) const { return vstar_mark[v] == epoch; }
  };

  bool traversal_insert(Ctx& ctx, Edge e, CoreValue k);
  bool traversal_remove(Ctx& ctx, Edge e, CoreValue k);
  /// Purecore degree: neighbours that can still end in the (k+1)-core.
  /// Vertices already evicted in this traversal are excluded — their
  /// eviction happened before `w` was visited, so the cascade will not
  /// compensate for them.
  CoreValue pcd(const Ctx& ctx, VertexId w, CoreValue k) const;
  CoreValue recompute_mcd(VertexId w) const;
  void ensure_level_locks(std::size_t count);

  template <bool kInsert>
  std::size_t run_rounds(std::span<const Edge> edges, int workers);

  ThreadTeam& team_;
  Options opts_;
  JeGraph graph_;
  std::unique_ptr<std::atomic<CoreValue>[]> core_;
  std::unique_ptr<std::atomic<CoreValue>[]> mcd_;
  std::size_t n_ = 0;
  std::uint64_t sequential_fallbacks_ = 0;
  CoreValue max_core_ = 0;

  std::unique_ptr<Spinlock[]> level_locks_;
  std::size_t level_lock_count_ = 0;
  std::vector<Ctx> ctxs_;
};

}  // namespace parcore
