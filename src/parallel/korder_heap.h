// Per-worker min-priority queue over the k-order (paper §5, Algorithms
// 9-11). Entries cache an OM label snapshot [Lt, Lb] plus the vertex
// status word s and are keyed by the snapshot; the whole queue is
// re-snapshotted ("update_version") whenever
//   - the O_k relabel version moved since the cache was built, or
//   - a dequeued vertex's status word changed (it was moved by another
//     worker), which invalidates the cached order.
// dequeue() returns the minimal vertex LOCKED with core == k (via the
// conditional lock of Algorithm 4), or kInvalidVertex when drained.
//
// Next to queue membership each queued vertex carries its pending d*in:
// the number of this worker's V* members whose Forward counted it, less
// those Backward has since evicted (DESIGN.md §3.1). dequeue() hands the
// count to the caller with the locked vertex, so an insertion never
// rescans a candidate's adjacency.
#pragma once

#include <cstdint>
#include <vector>

#include "maint/core_state.h"
#include "om/order_list.h"
#include "sync/annotations.h"
#include "support/types.h"

namespace parcore {

class KOrderHeap {
 public:
  /// Binds the queue to one operation's O_k list; clears all entries.
  void reset(OrderList* list, CoreState* state);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Forward's d*in bump plus Algorithm 10: counts one more V*
  /// predecessor of v and, if v is not queued yet, snapshots its
  /// labels/status and adds it. Never blocks.
  void enqueue(VertexId v);

  /// DoPost for a queued candidate: one of v's counted V* predecessors
  /// left V*. No-op unless v is queued with a positive count.
  void uncount(VertexId v);

  /// Algorithm 11: pops vertices in k-order; returns the first vertex
  /// successfully locked with core == k (caller owns the lock) and, via
  /// `din`, its pending count, or kInvalidVertex when the queue is
  /// exhausted. A popped vertex's count leaves with its entry, also
  /// when the entry is dropped as stale. Returns while holding a
  /// dynamically chosen per-vertex lock — exempt from the analysis
  /// (docs/STATIC_ANALYSIS.md §exemptions).
  VertexId dequeue(CoreValue k, CoreValue* din = nullptr)
      PARCORE_NO_THREAD_SAFETY_ANALYSIS;

 private:
  struct Entry {
    OmKey key;
    std::uint32_t s = 0;
    VertexId v = kInvalidVertex;
  };

  static bool later(const Entry& a, const Entry& b) { return b.key < a.key; }

  /// Algorithm 9: re-snapshot every entry at a quiescent O_k version.
  void update_version();

  // Membership + pending d*in of the queued vertices: open addressing
  // with linear probing and backward-shift erase, so it holds exactly
  // the heap's vertices and a drained queue needs no clearing.
  struct Slot {
    VertexId v = kInvalidVertex;
    CoreValue din = 0;
  };

  void push(Entry e);
  Entry pop();

  std::size_t home(VertexId v) const;
  /// Index of v's slot, or of the empty slot that ends its probe run.
  std::size_t probe(VertexId v) const;
  void grow();
  /// Erases queued v's slot; returns the count it held.
  CoreValue take(VertexId v);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_ = std::vector<Slot>(16);  // power of two
  OrderList* list_ = nullptr;
  CoreState* state_ = nullptr;
  std::uint64_t version_ = 0;
  bool version_valid_ = false;
};

}  // namespace parcore
