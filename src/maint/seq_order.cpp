#include "maint/seq_order.h"

#include <algorithm>
#include <cassert>

namespace parcore {

SeqOrderMaintainer::SeqOrderMaintainer(DynamicGraph& g) : graph_(g) {
  rebuild();
}

void SeqOrderMaintainer::rebuild() { state_.initialize(graph_); }

// --------------------------------------------------------------------------
// Min-heap over cached OM keys. Sequentially, cached keys only go stale
// when a relabel rewrites labels; we refresh the whole heap whenever the
// list's version counter moved (same strategy as the parallel queue).
// --------------------------------------------------------------------------

void SeqOrderMaintainer::heap_push(HeapEntry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return b.key < a.key;  // min-heap
                 });
}

SeqOrderMaintainer::HeapEntry SeqOrderMaintainer::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapEntry& a, const HeapEntry& b) {
                  return b.key < a.key;
                });
  HeapEntry e = heap_.back();
  heap_.pop_back();
  return e;
}

void SeqOrderMaintainer::enqueue(VertexId x, OrderList& list) {
  if (!inq_.insert(x)) return;
  heap_push(HeapEntry{list.snapshot_key(&state_.item(x)), x});
}

VertexId SeqOrderMaintainer::dequeue(OrderList& list) {
  if (heap_.empty()) return kInvalidVertex;
  const std::uint64_t ver = list.version_started();
  if (!heap_version_valid_ || ver != heap_version_) {
    for (HeapEntry& e : heap_)
      e.key = list.snapshot_key(&state_.item(e.v));
    std::make_heap(heap_.begin(), heap_.end(),
                   [](const HeapEntry& a, const HeapEntry& b) {
                     return b.key < a.key;
                   });
    heap_version_ = ver;
    heap_version_valid_ = true;
  }
  return heap_pop().v;
}

// --------------------------------------------------------------------------
// Insertion (Algorithm 2)
// --------------------------------------------------------------------------

bool SeqOrderMaintainer::insert_edge(VertexId u, VertexId v) {
  const std::size_t n = graph_.num_vertices();
  if (u == v || u >= n || v >= n) return false;
  if (graph_.has_edge(u, v)) return false;
  if (state_.precedes_stable(v, u)) std::swap(u, v);  // ensure u ≺ v

  const CoreValue K = state_.core(u).load(std::memory_order_relaxed);
  const CoreValue cv = state_.core(v).load(std::memory_order_relaxed);
  graph_.insert_edge_unchecked(u, v);
  state_.dout(u).fetch_add(1, std::memory_order_relaxed);
  // mcd bookkeeping for the new edge (Definition 3.8).
  if (cv >= K) state_.mcd_increment_unless_empty(u);
  if (K >= cv) state_.mcd_increment_unless_empty(v);

  if (state_.dout(u).load(std::memory_order_relaxed) <= K) return true;

  state_.levels().ensure_capacity(
      static_cast<std::size_t>(state_.max_core()) + 2);
  OrderList& list = *state_.levels().get(K);

  vstar_.clear();
  inq_.clear();
  heap_.clear();
  heap_version_valid_ = false;

  VertexId w = u;
  while (w != kInvalidVertex) {
    // d*in(w) = |pre(w) ∩ V*|, kept as a counter: forward() counts each
    // V* member into its successors and Backward's DoPost uncounts the
    // evicted ones (DESIGN.md §3.1).
    const CoreValue d = state_.din(w);
    if (d + state_.dout(w).load(std::memory_order_relaxed) > K) {
      forward(w, K, list);
    } else if (d > 0) {
      backward(w, K, list);
    }  // else skipped: not part of V+, and din(w) is already 0
    w = dequeue(list);
  }

  // Promote V* to core K+1, moving items to the head of O_{K+1} while
  // preserving their relative k-order (Algorithm 2 line 10).
  OrderList& next = state_.levels().get_or_create(K + 1);
  OmItem* anchor = nullptr;
  vstar_.for_each([&](VertexId c) {
    state_.core(c).store(K + 1, std::memory_order_relaxed);
    state_.din(c) = 0;
    list.remove(&state_.item(c));
    if (anchor == nullptr)
      next.insert_head(&state_.item(c));
    else
      next.insert_after(anchor, &state_.item(c));
    anchor = &state_.item(c);
    state_.mcd(c).store(kMcdEmpty, std::memory_order_relaxed);
    for (VertexId x : graph_.neighbors(c))
      if (state_.core(x).load(std::memory_order_relaxed) == K + 1)
        state_.mcd_increment_unless_empty(x);
  });
  if (!vstar_.empty()) state_.raise_max_core(K + 1);
  return true;
}

void SeqOrderMaintainer::forward(VertexId w, CoreValue k, OrderList& list) {
  vstar_.insert(w);
  for (VertexId x : graph_.neighbors(w)) {
    if (state_.core(x).load(std::memory_order_relaxed) != k) continue;
    if (vstar_.contains(x)) continue;
    if (!state_.precedes_stable(w, x)) continue;  // successors only
    state_.din(x) += 1;  // w is one more V* predecessor of x
    enqueue(x, list);
  }
}

void SeqOrderMaintainer::adjust_candidates(VertexId y, CoreValue k,
                                           bool origin) {
  // DoPre: V* predecessors of y lose a remaining successor.
  // DoPost: V* successors and queued candidates of y lose a candidate
  // predecessor.
  for (VertexId x : graph_.neighbors(y)) {
    if (!vstar_.contains(x)) {
      // Outside V* only queued candidates carry a nonzero d*in, and y's
      // forward() counted each of them. The Backward origin was never
      // in V* and counted nobody.
      if (!origin && state_.din(x) > 0) state_.din(x) -= 1;
      continue;
    }
    if (state_.precedes_stable(x, y)) {
      state_.dout(x).fetch_sub(1, std::memory_order_relaxed);
    } else if (state_.din(x) > 0) {
      state_.din(x) -= 1;
    } else {
      continue;
    }
    if (state_.din(x) +
            state_.dout(x).load(std::memory_order_relaxed) <=
        k) {
      if (inr_.insert(x)) rq_.push_back(x);
    }
  }
}

void SeqOrderMaintainer::backward(VertexId w, CoreValue k, OrderList& list) {
  OmItem* pre = &state_.item(w);
  rq_.clear();
  inr_.clear();
  adjust_candidates(w, k, /*origin=*/true);  // only DoPre can fire
  state_.dout(w).fetch_add(state_.din(w), std::memory_order_relaxed);
  state_.din(w) = 0;

  while (!rq_.empty()) {
    const VertexId y = rq_.front();
    rq_.pop_front();
    vstar_.erase(y);
    adjust_candidates(y, k, /*origin=*/false);
    list.remove(&state_.item(y));
    list.insert_after(pre, &state_.item(y));
    pre = &state_.item(y);
    state_.dout(y).fetch_add(state_.din(y), std::memory_order_relaxed);
    state_.din(y) = 0;
  }
}

// --------------------------------------------------------------------------
// Removal (Algorithm 3)
// --------------------------------------------------------------------------

void SeqOrderMaintainer::ensure_mcd(VertexId v) {
  if (state_.mcd(v).load(std::memory_order_relaxed) == kMcdEmpty)
    state_.mcd(v).store(state_.compute_mcd(graph_, v),
                        std::memory_order_relaxed);
}

void SeqOrderMaintainer::do_mcd_remove(VertexId x, CoreValue k) {
  ensure_mcd(x);
  const CoreValue m =
      state_.mcd(x).load(std::memory_order_relaxed) - 1;
  state_.mcd(x).store(m, std::memory_order_relaxed);
  if (m < k && state_.core(x).load(std::memory_order_relaxed) == k &&
      !vstar_.contains(x)) {
    vstar_.insert(x);
    rq_.push_back(x);
  }
}

bool SeqOrderMaintainer::remove_edge(VertexId u, VertexId v) {
  touched_.clear();
  if (!remove_one(u, v)) return false;
  repair_dout();
  return true;
}

bool SeqOrderMaintainer::remove_one(VertexId u, VertexId v) {
  if (!graph_.has_edge(u, v)) return false;
  const CoreValue cu = state_.core(u).load(std::memory_order_relaxed);
  const CoreValue cv = state_.core(v).load(std::memory_order_relaxed);
  const CoreValue K = std::min(cu, cv);

  ensure_mcd(u);
  ensure_mcd(v);
  // The edge still exists here; dout of the k-order-lower endpoint drops.
  // In a batch this value may be stale; repair_dout() overwrites it.
  if (state_.precedes_stable(u, v))
    state_.dout(u).fetch_sub(1, std::memory_order_relaxed);
  else
    state_.dout(v).fetch_sub(1, std::memory_order_relaxed);
  graph_.remove_edge(u, v);

  vstar_.clear();
  rq_.clear();
  touched_.insert(u);
  touched_.insert(v);

  // Endpoint mcd updates (Algorithm 3 line 2): the endpoint loses a
  // >=-core neighbour only when the removed peer's core was >= its own.
  if (cv >= cu) do_mcd_remove(u, K);
  if (cu >= cv) do_mcd_remove(v, K);

  while (!rq_.empty()) {
    const VertexId w = rq_.front();
    rq_.pop_front();
    for (VertexId x : graph_.neighbors(w)) {
      if (state_.core(x).load(std::memory_order_relaxed) != K) continue;
      if (vstar_.contains(x)) continue;
      do_mcd_remove(x, K);
      touched_.insert(x);
    }
  }

  if (!vstar_.empty()) {
    OrderList& list = *state_.levels().get(K);
    OrderList& lower = state_.levels().get_or_create(K - 1);
    vstar_.for_each([&](VertexId w) {
      state_.core(w).store(K - 1, std::memory_order_relaxed);
      state_.mcd(w).store(kMcdEmpty, std::memory_order_relaxed);
      list.remove(&state_.item(w));
      lower.insert_tail(&state_.item(w));
      touched_.insert(w);
    });
  }
  return true;
}

void SeqOrderMaintainer::repair_dout() {
  // Restore d+out exactness after demotions (DESIGN.md §3.1): recompute
  // for every touched vertex once levels/positions are final.
  touched_.for_each([&](VertexId x) {
    state_.dout(x).store(state_.compute_dout(graph_, x),
                         std::memory_order_relaxed);
  });
}

std::size_t SeqOrderMaintainer::insert_batch(std::span<const Edge> edges) {
  std::size_t applied = 0;
  for (const Edge& e : edges)
    if (insert_edge(e.u, e.v)) ++applied;
  return applied;
}

std::size_t SeqOrderMaintainer::remove_batch(std::span<const Edge> edges) {
  // No removal step reads d+out, so one repair at the end covers the
  // union of the edges' touched sets.
  touched_.clear();
  std::size_t applied = 0;
  for (const Edge& e : edges)
    if (remove_one(e.u, e.v)) ++applied;
  repair_dout();
  return applied;
}

}  // namespace parcore
