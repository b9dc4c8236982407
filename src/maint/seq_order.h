// Sequential Simplified-Order core maintenance (paper §3.3, Algorithms
// 2 and 3, after Guo & Sekerinski [16] / Zhang et al. [17]).
//
// This is the single-threaded foundation the Parallel-Order algorithm
// builds on, kept as an independent implementation: it serves as the
// 1-worker ablation ("sequential Order") and as a second oracle next to
// brute-force recomputation in the differential tests.
#pragma once

#include <deque>
#include <vector>

#include "graph/dynamic_graph.h"
#include "maint/core_state.h"
#include "om/order_list.h"
#include "support/types.h"
#include "support/vertex_set.h"

namespace parcore {

class SeqOrderMaintainer {
 public:
  /// The maintainer mutates `g` as edges are inserted/removed; `g` must
  /// outlive the maintainer.
  explicit SeqOrderMaintainer(DynamicGraph& g);

  /// (Re)initialises cores, k-order, dout, mcd from the current graph.
  void rebuild();

  /// Inserts one edge and maintains cores/k-order. Returns false for
  /// self-loops, out-of-range vertices and existing edges.
  bool insert_edge(VertexId u, VertexId v);

  /// Removes one edge and maintains cores/k-order. Returns false if the
  /// edge is absent.
  bool remove_edge(VertexId u, VertexId v);

  std::size_t insert_batch(std::span<const Edge> edges);
  /// SeqR: removes edge by edge, then repairs d+out once for the whole
  /// batch, as OurR does (DESIGN.md §3.1).
  std::size_t remove_batch(std::span<const Edge> edges);

  CoreValue core(VertexId v) const {
    return state_.core(v).load(std::memory_order_relaxed);
  }
  std::vector<CoreValue> cores() const { return state_.cores_snapshot(); }

  CoreState& state() { return state_; }
  const CoreState& state() const { return state_; }
  DynamicGraph& graph() { return graph_; }

 private:
  struct HeapEntry {
    OmKey key;
    VertexId v;
  };

  // -- insertion helpers (Algorithm 2) -----------------------------------
  void forward(VertexId w, CoreValue k, OrderList& list);
  void backward(VertexId w, CoreValue k, OrderList& list);
  /// DoPre + DoPost in one adjacency scan; `origin` marks Backward's
  /// start vertex, which never joined V*.
  void adjust_candidates(VertexId y, CoreValue k, bool origin);
  void enqueue(VertexId x, OrderList& list);
  VertexId dequeue(OrderList& list);
  void heap_push(HeapEntry e);
  HeapEntry heap_pop();

  // -- removal helpers (Algorithm 3) --------------------------------------
  void ensure_mcd(VertexId v);
  void do_mcd_remove(VertexId x, CoreValue k);
  /// Algorithm 3 for one edge without the d+out repair: adds every
  /// vertex whose d+out may have changed to `touched_`.
  bool remove_one(VertexId u, VertexId v);
  /// Recomputes d+out for every vertex in `touched_`.
  void repair_dout();

  DynamicGraph& graph_;
  CoreState state_;

  // Per-operation scratch (reused across operations).
  VertexSet vstar_;
  VertexSet inq_;
  VertexSet inr_;
  VertexSet touched_;
  std::vector<HeapEntry> heap_;
  std::uint64_t heap_version_ = 0;
  bool heap_version_valid_ = false;
  std::deque<VertexId> rq_;
};

}  // namespace parcore
