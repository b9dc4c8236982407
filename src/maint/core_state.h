// Shared per-vertex maintenance state (paper §4: core, d+out, d*in, mcd,
// status s, status t, one lock and one OM item per vertex) plus the
// directory of per-level k-order lists. Used by both the sequential
// Simplified-Order maintainer and the Parallel-Order maintainer.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "decomp/bz.h"
#include "graph/dynamic_graph.h"
#include "om/order_list.h"
#include "support/types.h"
#include "sync/annotations.h"
#include "sync/mutex.h"
#include "sync/spinlock.h"

namespace parcore {

/// Directory of O_k lists. Reads are lock-free; creation is mutex-
/// guarded; capacity growth happens only at quiescence (batch start).
class LevelDirectory {
 public:
  void configure(std::uint32_t group_capacity) {
    group_capacity_ = group_capacity;
  }

  /// Grows slot capacity to at least `cap` levels. Quiescent only.
  void ensure_capacity(std::size_t cap);

  std::size_t capacity() const { return slots_.size(); }

  OrderList* get(CoreValue k) const {
    const auto idx = static_cast<std::size_t>(k);
    return idx < slots_.size() ? slots_[idx].load(std::memory_order_acquire)
                               : nullptr;
  }

  /// Returns O_k, creating it on first use. k must be < capacity().
  OrderList& get_or_create(CoreValue k);

  /// Destroys all lists (items become dangling; reinitialise after).
  void clear();

  /// OrderList::compact() over every live list: reclaims quarantined OM
  /// groups and absorbs empty ones. Quiescent only (no batch running,
  /// no lock-free readers in flight); the streaming engine calls this
  /// between flushes. Returns the total number of groups freed.
  std::size_t compact_all();

 private:
  std::uint32_t group_capacity_ = 64;
  // Published pointers: reads are lock-free (acquire loads), so slots_
  // itself is NOT guarded — only slot creation and the backing storage
  // serialise on create_mu_. ensure_capacity()/clear() are quiescent-
  // only by contract (no concurrent readers in flight).
  std::vector<std::atomic<OrderList*>> slots_;
  Mutex create_mu_;
  std::deque<OrderList> storage_ PARCORE_GUARDED_BY(create_mu_);
};

/// A serializable image of the order-based state: per-vertex core
/// numbers plus the global k-order (the per-level order lists
/// concatenated ascending by level, so core values along `order` are
/// non-decreasing). This is exactly what a durability checkpoint stores
/// (io/pcg.h PcgCheckpoint) — CoreState::install rebuilds dout/mcd
/// from the order alone, skipping bz_decompose entirely.
struct SavedCoreOrder {
  std::vector<CoreValue> core;
  std::vector<VertexId> order;
};

/// floor(v) that makes v's next scan repartition: above every core.
inline constexpr CoreValue kFloorDirty = std::numeric_limits<CoreValue>::max();

/// SoA vertex state. All cross-thread fields are atomics; `din` is only
/// touched by the lock holder of its vertex.
class CoreState {
 public:
  struct Options {
    std::uint32_t om_group_capacity = 64;
  };

  /// The one state builder: installs a (core, k-order) image — from
  /// bz_decompose, the bulk peel or a durability checkpoint — as this
  /// state. Allocates the per-vertex fields, fills each O_k by
  /// appending in `order`, computes dout from the order ranks and mcd
  /// from `cores`, and partitions each adjacency list at floor(v) =
  /// core(v) - 1 in the same pass (DESIGN.md §3.1), so `g` is
  /// reordered. Validates every image: sizes, `order` a permutation,
  /// cores non-negative and non-decreasing along it, dout <= core and
  /// mcd >= core. On violation returns false with a diagnostic in
  /// `error` and leaves the state unusable until the next install.
  /// Whether the cores are CORRECT for `g` is not (and cannot cheaply
  /// be) checked here — recovery differentially verifies against a
  /// decomposition instead.
  bool install(DynamicGraph& g, std::span<const CoreValue> cores,
               std::span<const VertexId> order, const Options& opts,
               std::string* error);

  /// bz_decompose(g), then install its image.
  void initialize(DynamicGraph& g, const Options& opts);
  void initialize(DynamicGraph& g) { initialize(g, Options()); }

  /// The serializable image of the current state (quiescent only).
  SavedCoreOrder save_order() const;

  std::size_t size() const { return n_; }

  // Per-vertex fields -----------------------------------------------------
  std::atomic<CoreValue>& core(VertexId v) { return core_[v].core; }
  const std::atomic<CoreValue>& core(VertexId v) const {
    return core_[v].core;
  }
  std::atomic<CoreValue>& dout(VertexId v) { return dout_[v]; }
  std::atomic<CoreValue>& mcd(VertexId v) { return mcd_[v]; }
  std::atomic<std::int32_t>& t(VertexId v) { return t_[v]; }
  std::atomic<std::uint32_t>& s(VertexId v) { return s_[v]; }
  /// The prefix of adj(v) holds every neighbour whose core is >=
  /// floor(v), unless floor(v) is kFloorDirty (DESIGN.md §3.1). Kept by
  /// ParallelOrderMaintainer only.
  std::atomic<CoreValue>& floor(VertexId v) { return core_[v].floor; }
  const std::atomic<CoreValue>& floor(VertexId v) const {
    return core_[v].floor;
  }
  CoreValue& din(VertexId v) { return din_[v]; }
  Spinlock& lock(VertexId v) { return locks_[v]; }
  OmItem& item(VertexId v) { return items_[v]; }
  const OmItem& item(VertexId v) const { return items_[v]; }

  LevelDirectory& levels() { return levels_; }
  CoreValue max_core() const {
    return max_core_.load(std::memory_order_relaxed);
  }
  void raise_max_core(CoreValue k);

  std::vector<CoreValue> cores_snapshot() const;

  // Shared helpers ---------------------------------------------------------

  /// Global k-order test at quiescence or with both vertices locked by
  /// the caller: compares core numbers, then OM labels.
  bool precedes_stable(VertexId a, VertexId b) const;

  /// Algorithm 6: Parallel-Order — k-order test validated by the vertex
  /// status words; safe against concurrent level moves.
  bool precedes_guarded(VertexId a, VertexId b) const;

  /// |{u in adj(v) : v precedes u}| — the defining value of d+out.
  CoreValue compute_dout(const DynamicGraph& g, VertexId v) const;

  /// |{u in adj(v) : core(u) >= core(v)}| — the defining value of mcd.
  CoreValue compute_mcd(const DynamicGraph& g, VertexId v) const;

  /// mcd(v) += 1 unless currently empty (CAS; safe against concurrent
  /// invalidation during the insert phase).
  void mcd_increment_unless_empty(VertexId v);

  /// Full invariant suite (DESIGN.md §5): order-list validity, level
  /// membership, dout exactness, k-order bound, mcd empty-or-exact,
  /// din == 0, t == 0, all locks free. Quiescent only.
  bool check_invariants(const DynamicGraph& g, std::string* error = nullptr,
                        bool check_cores = false) const;

  /// The prefix invariant behind floor(v): every neighbour of v with
  /// core >= floor(v) lies in adj(v)'s prefix, unless floor(v) is
  /// kFloorDirty. Quiescent only.
  bool check_prefix(const DynamicGraph& g, std::string* error = nullptr) const;

 private:
  void allocate(std::size_t n);

  std::size_t n_ = 0;
  // floor(v) shares core(v)'s cache line: every reader of a floor has
  // just read or is about to read the same vertex's core.
  struct CoreAndFloor {
    std::atomic<CoreValue> core;
    std::atomic<CoreValue> floor;
  };
  std::unique_ptr<CoreAndFloor[]> core_;
  std::unique_ptr<std::atomic<CoreValue>[]> dout_;
  std::unique_ptr<std::atomic<CoreValue>[]> mcd_;
  std::unique_ptr<std::atomic<std::int32_t>[]> t_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> s_;
  std::vector<CoreValue> din_;
  std::unique_ptr<Spinlock[]> locks_;
  std::unique_ptr<OmItem[]> items_;
  LevelDirectory levels_;
  std::atomic<CoreValue> max_core_{0};
};

}  // namespace parcore
