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
#include "support/histogram.h"
#include "support/types.h"
#include "support/vertex_set.h"

namespace parcore {

class SeqOrderMaintainer {
 public:
  struct Options {
    CoreState::Options state{};
    bool collect_stats = false;  // Fig. 1 histograms
  };

  /// The maintainer mutates `g` as edges are inserted/removed; `g` must
  /// outlive the maintainer.
  SeqOrderMaintainer(DynamicGraph& g, Options opts);
  explicit SeqOrderMaintainer(DynamicGraph& g)
      : SeqOrderMaintainer(g, Options()) {}

  /// (Re)initialises cores, k-order, dout, mcd from the current graph.
  void rebuild();

  /// Inserts one edge and maintains cores/k-order. Returns false for
  /// self-loops, out-of-range vertices and existing edges.
  bool insert_edge(VertexId u, VertexId v);

  /// Removes one edge and maintains cores/k-order. Returns false if the
  /// edge is absent.
  bool remove_edge(VertexId u, VertexId v);

  std::size_t insert_batch(std::span<const Edge> edges);
  std::size_t remove_batch(std::span<const Edge> edges);

  CoreValue core(VertexId v) const {
    return state_.core(v).load(std::memory_order_relaxed);
  }
  std::vector<CoreValue> cores() const { return state_.cores_snapshot(); }

  CoreState& state() { return state_; }
  const CoreState& state() const { return state_; }
  DynamicGraph& graph() { return graph_; }

  const SizeHistogram& insert_vplus_histogram() const { return vplus_hist_; }
  const SizeHistogram& insert_vstar_histogram() const { return vstar_hist_; }
  const SizeHistogram& remove_vstar_histogram() const {
    return remove_vstar_hist_;
  }

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

  void repair_dout();

  DynamicGraph& graph_;
  Options opts_;
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
  std::size_t vplus_count_ = 0;

  SizeHistogram vplus_hist_;
  SizeHistogram vstar_hist_;
  SizeHistogram remove_vstar_hist_;
};

}  // namespace parcore
