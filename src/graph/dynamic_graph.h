// Dynamic undirected graph over a fixed-capacity vertex set.
//
// Adjacency is stored as flat arrays per vertex ("our method uses
// arrays to store edges", paper §6.3) — removal scans the adjacency
// list, which is exactly the O(deg) cost the paper attributes to OurR
// versus the tree-based JE storage.
//
// Storage layout (DESIGN.md §8): one 32-byte VertexRec per vertex in a
// contiguous header array. Degrees <= 4 live inline in the record; a
// larger adjacency lives in a power-of-two slab carved from the
// arena-backed SlabStore (graph/slab_store.h). Growth doubles the
// capacity by relocating into the next size class under the vertex
// lock; removal is a partition-preserving erase in place and never
// shrinks, so the steady-state insert/remove hot path performs no
// allocation at all.
//
// Each list is split in two: a prefix adj(u)[0, hi(u)) and the rest.
// The graph keeps the split through every edit (an append lands outside
// the prefix unless asked otherwise; an erase keeps both parts
// contiguous) but gives it no meaning. ParallelOrderMaintainer keeps
// the neighbours its scans can use in the prefix (DESIGN.md §3.1).
//
// Thread-safety contract (unchanged from the vector<vector> layout):
// DynamicGraph performs no per-vertex synchronisation. The maintainers
// mutate an edge (u,v) only while holding the vertex locks of BOTH u
// and v, and read or repartition adj(w) — including the spans from
// neighbors() and prefix() — only while holding w's lock (or at
// quiescence), which makes all accesses, including grow-relocations,
// race-free by construction. Slab allocation itself is internally
// sharded and thread-safe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/slab_store.h"
#include "support/types.h"

namespace parcore {

/// Memory accounting for the adjacency storage (surfaced by
/// `parcore_cli stats`, the engine stats, and bench_storage).
struct GraphMemoryStats {
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  std::size_t header_bytes = 0;         // VertexRec array
  std::size_t arena_reserved_bytes = 0; // chunks + jumbos held by the store
  std::size_t slab_used_bytes = 0;      // degree entries living out of line
  std::size_t slab_capacity_bytes = 0;  // capacity of live slabs
  std::size_t freelist_bytes = 0;       // recycled slabs awaiting reuse
  std::size_t inline_vertices = 0;      // adjacency resident in the header
  std::size_t chunk_count = 0;

  /// Total heap footprint of the adjacency structure.
  std::size_t total_bytes() const { return header_bytes + arena_reserved_bytes; }
  /// Fraction of vertices whose adjacency needs no slab at all.
  double inline_fraction() const {
    return num_vertices == 0
               ? 0.0
               : static_cast<double>(inline_vertices) /
                     static_cast<double>(num_vertices);
  }
  /// Fraction of reserved arena bytes not holding live degree entries
  /// (size-class rounding + free lists + abandoned chunk tails).
  double slack_fraction() const {
    return arena_reserved_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(slab_used_bytes) /
                           static_cast<double>(arena_reserved_bytes);
  }
};

class DynamicGraph {
 public:
  /// Degree at which adjacency spills from the header into a slab.
  static constexpr std::uint32_t kInlineDegree = 4;

  DynamicGraph() : DynamicGraph(0) {}
  explicit DynamicGraph(std::size_t n, SlabStore::Options store_opts = {});

  // Copy/move are explicit because of the atomic edge counter; they are
  // only meaningful at quiescence (no concurrent mutators). Copying
  // rebuilds compactly: exact-class slabs laid out linearly in a fresh
  // arena, dropping accumulated growth slack — this is what makes the
  // engine's epoch graph snapshots a linear arena fill rather than n
  // heap allocations.
  DynamicGraph(const DynamicGraph& other);
  DynamicGraph& operator=(const DynamicGraph& other);
  DynamicGraph(DynamicGraph&& other) noexcept;
  DynamicGraph& operator=(DynamicGraph&& other) noexcept;

  /// Builds a graph from an edge list, dropping self-loops and duplicate
  /// edges (paper §6.2 preprocessing). Exact-degree preallocation: one
  /// counting pass sizes every vertex before any adjacency is written,
  /// so the build performs no relocations.
  static DynamicGraph from_edges(std::size_t n, std::span<const Edge> edges,
                                 SlabStore::Options store_opts = {});

  std::size_t num_vertices() const { return verts_.size(); }
  std::size_t num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }

  /// Grows the vertex set to at least n vertices (no-op if smaller).
  /// Quiescent only: resizing may reallocate the whole header array,
  /// which invalidates neighbors() spans of inline (degree <= 4)
  /// vertices — a hazard the old vector<vector> layout did not have.
  void add_vertices(std::size_t n) {
    if (n > verts_.size()) verts_.resize(n);
  }

  std::span<const VertexId> neighbors(VertexId u) const {
    const VertexRec& r = verts_[u];
    return {r.slab != nullptr ? r.slab : r.inline_storage, r.degree};
  }

  std::size_t degree(VertexId u) const { return verts_[u].degree; }

  /// adj(u)[0, hi(u)): the leading part of neighbors(u).
  std::span<const VertexId> prefix(VertexId u) const {
    const VertexRec& r = verts_[u];
    return {data(r), r.hi};
  }

  /// Reorders adj(u) in place so the entries for which `in_prefix`
  /// holds form the prefix. Calls `in_prefix` exactly once per entry, in
  /// list order, so a caller may fold its own per-neighbour work into
  /// the pass. Quiescent or u-locked only.
  template <typename Pred>
  void repartition(VertexId u, Pred&& in_prefix) {
    VertexRec& r = verts_[u];
    VertexId* p = data(r);
    std::uint32_t hi = 0;
    for (std::uint32_t i = 0; i < r.degree; ++i)
      if (in_prefix(p[i])) std::swap(p[hi++], p[i]);
    r.hi = hi;
  }

  /// Scans the smaller-degree endpoint, so hub vertices cost O(min deg)
  /// on the locked insert path.
  bool has_edge(VertexId u, VertexId v) const;

  /// Inserts (u,v); returns false for self-loops and existing edges.
  bool insert_edge(VertexId u, VertexId v);

  /// Removes (u,v); returns false if absent. Partition-preserving
  /// erase: each list keeps its prefix/rest split, but order within
  /// either part is not preserved.
  bool remove_edge(VertexId u, VertexId v);

  /// Insert without the existence check — caller has already verified
  /// absence (used under vertex locks where has_edge was just called).
  /// v joins u's prefix when `v_in_prefix_of_u`, and u joins v's when
  /// `u_in_prefix_of_v`; otherwise each lands after its list's prefix.
  void insert_edge_unchecked(VertexId u, VertexId v,
                             bool v_in_prefix_of_u = false,
                             bool u_in_prefix_of_v = false);

  /// Pre-sizes u's adjacency for at least `capacity` entries (rounded to
  /// inline or the next slab class). Quiescent or u-locked only; used by
  /// bulk loaders so the fill phase never relocates.
  void reserve_degree(VertexId u, std::size_t capacity);

  std::size_t max_degree() const;
  double average_degree() const {  // paper Table 2 definition: m / n
    return verts_.empty() ? 0.0
                          : static_cast<double>(num_edges()) /
                                static_cast<double>(verts_.size());
  }

  /// All edges with u < v, in adjacency order.
  std::vector<Edge> edges() const;

  /// Adjacency-storage accounting. The per-vertex scan is O(n); the
  /// arena counters are O(shards). Quiescent only.
  GraphMemoryStats memory_stats() const;

  /// The arena counters alone: O(shards), read under the shard
  /// spinlocks, so safe while other threads insert or remove edges
  /// (the engine's metric export reads it during a flush).
  SlabStoreStats arena_stats() const { return store_.stats(); }

 private:
  struct VertexRec {
    std::uint32_t degree = 0;
    std::uint32_t hi = 0;      // prefix length, <= degree
    VertexId* slab = nullptr;  // nullptr → adjacency in inline_storage
    // The inline adjacency while slab is null. Once the list spills,
    // inline_storage[0] holds the slab's capacity instead, which keeps
    // the record at 32 bytes with the prefix length in it.
    VertexId inline_storage[kInlineDegree];
  };
  static_assert(sizeof(VertexRec) == 32, "two vertex headers per cache line");

  static VertexId* data(VertexRec& r) {
    return r.slab != nullptr ? r.slab : r.inline_storage;
  }
  static const VertexId* data(const VertexRec& r) {
    return r.slab != nullptr ? r.slab : r.inline_storage;
  }
  static std::uint32_t capacity(const VertexRec& r) {
    return r.slab != nullptr ? r.inline_storage[0] : kInlineDegree;
  }

  void append(VertexId u, VertexId v, bool in_prefix);
  bool erase_from(VertexId u, VertexId x);
  void grow(VertexId u, std::size_t min_capacity);
  void assign_compact_from(const DynamicGraph& other);

  std::vector<VertexRec> verts_;
  SlabStore store_;
  // Adjacency slabs are guarded by the maintainers' vertex locks; the
  // shared edge counter is touched by all workers, so it is atomic.
  std::atomic<std::size_t> num_edges_{0};
};

}  // namespace parcore
