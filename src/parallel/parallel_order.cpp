#include "parallel/parallel_order.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "support/timer.h"
#include "sync/backoff.h"

namespace parcore {
namespace {

// t while demote_if_unsupported is between its stores (DESIGN.md §3.2
// item 2).
constexpr std::int32_t kTPublishing = -1;

// A consistent (core, t) pair of v during a removal batch. Cores only
// decrease then, so an unchanged core around the t read brackets it;
// kTPublishing means a demotion is between its stores, which finish
// promptly. Inline: CheckMCD calls it once per neighbour.
inline std::pair<CoreValue, std::int32_t> demotion_snapshot(CoreState& state,
                                                            VertexId v) {
  for (Backoff backoff;; backoff.pause()) {
    const CoreValue c = state.core(v).load(std::memory_order_acquire);
    const std::int32_t t = state.t(v).load(std::memory_order_acquire);
    if (t != kTPublishing && state.core(v).load(std::memory_order_acquire) == c)
      return {c, t};
  }
}

}  // namespace

ParallelOrderMaintainer::ParallelOrderMaintainer(DynamicGraph& g,
                                                 ThreadTeam& team,
                                                 Options opts)
    : graph_(g), team_(team), opts_(opts) {
  ctxs_.resize(static_cast<std::size_t>(team_.max_workers()));
  if (opts_.restore == nullptr) {
    rebuild();
    return;
  }
  std::string err;
  if (!state_.install(graph_, opts_.restore->core, opts_.restore->order,
                      opts_.state, &err))
    throw std::runtime_error("cannot restore saved core order: " + err);
  opts_.restore = nullptr;  // construction-time only; never dangles
  reset_marks();
}

void ParallelOrderMaintainer::rebuild() {
  state_.initialize(graph_, opts_.state);
  reset_marks();
}

void ParallelOrderMaintainer::reset_marks() {
  mark_.assign(graph_.num_vertices(), 0);
  epoch_ = 0;
  changed_mark_.assign(graph_.num_vertices(), 0);
  changed_epoch_ = 0;
  last_changed_.clear();
}

bool ParallelOrderMaintainer::lock_endpoints(VertexId a, VertexId b,
                                             bool may_defer) {
  // "Lock u and v together if both are not locked" (Alg. 7/8 line 1):
  // hold one only while try-locking the other — no hold-and-wait, so
  // this step cannot join a blocking cycle.
  if (may_defer) return try_lock_endpoints(a, b);
  if (a > b) std::swap(a, b);
  lock_pair(state_.lock(a), state_.lock(b));
  return true;
}

bool ParallelOrderMaintainer::try_lock_endpoints(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  if (!state_.lock(a).try_lock()) return false;
  if (state_.lock(b).try_lock()) return true;
  state_.lock(a).unlock();
  return false;
}

template <typename Fn>
BatchResult ParallelOrderMaintainer::run_batch(std::span<const Edge> edges,
                                               int workers, Fn&& op) {
  last_timing_ = BatchTiming{};
  ++changed_epoch_;
  last_changed_.clear();  // keeps capacity across steady-state batches
  for (auto& ctx : ctxs_) ctx.changed.clear();
  BatchResult r;
  // The shared counters get a cache line each: `applied` takes one
  // fetch_add per worker, but `next` is the per-edge hot word and must
  // not ping-pong with it (or with the stack frame around them).
  alignas(64) std::atomic<std::size_t> applied{0};
  alignas(64) std::atomic<std::size_t> next{0};
  alignas(64) std::atomic<std::uint64_t> busy_us{0};
  alignas(64) std::atomic<std::uint64_t> deferred{0};
  // Edges are claimed one at a time off the shared counter, so a worker
  // stuck on an expensive edge never holds back a share of cheap ones.
  // An edge whose endpoint another worker holds is set aside rather
  // than waited for; each worker applies its own set-aside edges, with
  // blocking locks, once the counter runs dry (DESIGN.md §9).
  WallTimer dispatch_timer;
  team_.run(workers, [&](int w) {
    WallTimer busy;
    WorkerCtx& ctx = ctxs_[static_cast<std::size_t>(w)];
    ctx.deferred.clear();
    std::size_t done = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= edges.size()) break;
      switch (op(ctx, edges[i], /*may_defer=*/true)) {
        case EdgeOutcome::kApplied: ++done; break;
        case EdgeOutcome::kDeferred: ctx.deferred.push_back(edges[i]); break;
        case EdgeOutcome::kSkipped: break;
      }
    }
    for (Edge e : ctx.deferred)
      if (op(ctx, e, /*may_defer=*/false) == EdgeOutcome::kApplied) ++done;
    applied.fetch_add(done, std::memory_order_relaxed);
    deferred.fetch_add(ctx.deferred.size(), std::memory_order_relaxed);
    busy_us.fetch_add(busy.elapsed_us(), std::memory_order_relaxed);
  });
  last_timing_.dispatch_us = dispatch_timer.elapsed_us();
  last_timing_.busy_us = busy_us.load(std::memory_order_relaxed);
  last_timing_.deferred = deferred.load(std::memory_order_relaxed);
  last_timing_.workers = std::max(1, std::min(workers, team_.max_workers()));
  fold_scan_counts();
  r.applied = applied.load(std::memory_order_relaxed);
  r.skipped = edges.size() - r.applied;
  collect_changed();
  return r;
}

void ParallelOrderMaintainer::fold_scan_counts() {
  for (auto& ctx : ctxs_) {
    last_timing_.scanned += ctx.scanned;
    last_timing_.repartitions += ctx.repartitions;
    ctx.scanned = 0;
    ctx.repartitions = 0;
  }
}

std::span<const VertexId> ParallelOrderMaintainer::scan_list(WorkerCtx& ctx,
                                                             VertexId v,
                                                             CoreValue t) {
  if (t < state_.floor(v).load(std::memory_order_relaxed)) {
    // The new floor is published before any neighbour's core is read:
    // the fence pairs with finalize_insert's, so a promotion this pass
    // reads as the old core finds the new floor and marks v dirty.
    const CoreValue f =
        std::min(t, state_.core(v).load(std::memory_order_relaxed) - 1);
    state_.floor(v).store(f, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    graph_.repartition(v, [&](VertexId x) {
      return state_.core(x).load(std::memory_order_relaxed) >= f;
    });
    ++ctx.repartitions;
    ctx.scanned += graph_.degree(v);
  }
  const std::span<const VertexId> list = graph_.prefix(v);
  ctx.scanned += list.size();
  return list;
}

void ParallelOrderMaintainer::collect_changed() {
  for (auto& ctx : ctxs_) {
    for (VertexId v : ctx.changed) {
      if (changed_mark_[v] != changed_epoch_) {
        changed_mark_[v] = changed_epoch_;
        last_changed_.push_back(v);
      }
    }
    ctx.changed.clear();
  }
}

// ===========================================================================
// Insertion (Algorithms 5, 7)
// ===========================================================================

BatchResult ParallelOrderMaintainer::insert_batch(std::span<const Edge> edges,
                                                  int workers) {
  // Each insertion raises cores by at most one, so the level directory
  // can be sized once, at quiescence.
  state_.levels().ensure_capacity(
      std::min(static_cast<std::size_t>(state_.max_core()) + edges.size(),
               graph_.num_vertices()) +
      2);
  return run_batch(edges, workers,
                   [this](WorkerCtx& ctx, Edge e, bool may_defer) {
                     return insert_one(ctx, e, may_defer);
                   });
}

ParallelOrderMaintainer::EdgeOutcome ParallelOrderMaintainer::insert_one(
    WorkerCtx& ctx, Edge e, bool may_defer) {
  VertexId u = e.u, v = e.v;
  const std::size_t n = graph_.num_vertices();
  if (u == v || u >= n || v >= n) return EdgeOutcome::kSkipped;

  if (!lock_endpoints(u, v, may_defer)) return EdgeOutcome::kDeferred;
  if (graph_.has_edge(u, v)) {
    state_.lock(u).unlock();
    state_.lock(v).unlock();
    return EdgeOutcome::kSkipped;
  }
  // Orient u ≺ v; both endpoints are locked, so their positions are
  // stable (only a lock holder moves a vertex).
  if (state_.precedes_stable(v, u)) std::swap(u, v);
  const CoreValue k = state_.core(u).load(std::memory_order_relaxed);
  const CoreValue cv = state_.core(v).load(std::memory_order_relaxed);

  // Both cores are stable under the endpoint locks, so each entry can
  // land on its side of the other endpoint's floor right away. A peer
  // within one level below the endpoint's core goes in without loading
  // the floor: the prefix may hold more than it must.
  graph_.insert_edge_unchecked(
      u, v,
      cv >= k - 1 || cv >= state_.floor(u).load(std::memory_order_relaxed),
      k >= cv - 1 || k >= state_.floor(v).load(std::memory_order_relaxed));
  state_.dout(u).fetch_add(1, std::memory_order_relaxed);
  if (cv >= k) state_.mcd_increment_unless_empty(u);
  if (k >= cv) state_.mcd_increment_unless_empty(v);
  state_.lock(v).unlock();

  if (state_.dout(u).load(std::memory_order_relaxed) <= k) {
    state_.lock(u).unlock();
    if (opts_.collect_stats) {
      ctx.vplus_hist.record(0);
      ctx.vstar_hist.record(0);
    }
    return EdgeOutcome::kApplied;
  }

  OrderList& list = state_.levels().get_or_create(k);
  ctx.queue.reset(&list, &state_);
  ctx.vstar.clear();
  ctx.locked.clear();
  ctx.vplus_count = 0;
  ctx.locked.push_back(u);

  VertexId w = u;
  CoreValue d = 0;  // V* is still empty
  while (w != kInvalidVertex) {
    // d = d*in(w) = |pre(w) ∩ V*| (Alg. 7 line 9), counted by the queue
    // (DESIGN.md §3.1). w is locked now, so din(w) may take it.
    state_.din(w) = d;

    if (d + state_.dout(w).load(std::memory_order_relaxed) > k) {
      insert_forward(ctx, w, k);
    } else if (d > 0) {
      insert_backward(ctx, w, k, list);
    } else {
      // Skip: w is not in V+; release it immediately. w is always the
      // most recently locked vertex.
      state_.lock(w).unlock();
      ctx.locked.pop_back();
    }

    w = ctx.queue.dequeue(k, &d);  // returns w locked with core == k
    if (w != kInvalidVertex) ctx.locked.push_back(w);
  }

  finalize_insert(ctx, k, list);
  return EdgeOutcome::kApplied;
}

void ParallelOrderMaintainer::insert_forward(WorkerCtx& ctx, VertexId w,
                                             CoreValue k) {
  ++ctx.vplus_count;
  ctx.vstar.insert(w);
  for (VertexId x : scan_list(ctx, w, k)) {
    if (state_.core(x).load(std::memory_order_acquire) != k) continue;
    if (ctx.vstar.contains(x)) continue;
    if (!state_.precedes_guarded(w, x)) continue;  // successors only
    ctx.queue.enqueue(x);  // counts w into x's d*in, queued or not
  }
}

void ParallelOrderMaintainer::adjust_candidates(WorkerCtx& ctx, VertexId y,
                                                CoreValue k, bool origin) {
  // DoPre + DoPost in one scan: V* neighbours of y are all locked by
  // this worker, so their relative order to y is stable.
  for (VertexId x : scan_list(ctx, y, k)) {
    if (!ctx.vstar.contains(x)) {
      // DoPost for a still-queued candidate: y's Forward counted it.
      // The Backward origin was never in V* and counted nobody.
      if (!origin) ctx.queue.uncount(x);
      continue;
    }
    if (state_.precedes_stable(x, y)) {
      state_.dout(x).fetch_sub(1, std::memory_order_relaxed);
    } else if (state_.din(x) > 0) {
      state_.din(x) -= 1;
    } else {
      continue;
    }
    if (state_.din(x) + state_.dout(x).load(std::memory_order_relaxed) <= k &&
        ctx.inr.insert(x))
      ctx.rq.push_back(x);
  }
}

void ParallelOrderMaintainer::insert_backward(WorkerCtx& ctx, VertexId w,
                                              CoreValue k, OrderList& list) {
  ++ctx.vplus_count;
  OmItem* pre = &state_.item(w);
  ctx.rq.clear();
  ctx.inr.clear();
  adjust_candidates(ctx, w, k, /*origin=*/true);  // only DoPre fires
  state_.dout(w).fetch_add(state_.din(w), std::memory_order_relaxed);
  state_.din(w) = 0;

  while (!ctx.rq.empty()) {
    const VertexId y = ctx.rq.front();
    ctx.rq.pop_front();
    ctx.vstar.erase(y);
    adjust_candidates(ctx, y, k, /*origin=*/false);
    // Move y right after `pre` in O_k; s is odd while y's position is in
    // flux so Parallel-Order readers (Alg. 6) retry instead of tearing.
    state_.s(y).fetch_add(1, std::memory_order_acq_rel);
    list.remove(&state_.item(y));
    list.insert_after(pre, &state_.item(y));
    state_.s(y).fetch_add(1, std::memory_order_release);
    pre = &state_.item(y);
    state_.dout(y).fetch_add(state_.din(y), std::memory_order_relaxed);
    state_.din(y) = 0;
  }
}

void ParallelOrderMaintainer::finalize_insert(WorkerCtx& ctx, CoreValue k,
                                              OrderList& list) {
  if (!ctx.vstar.empty()) {
    OrderList& next = state_.levels().get_or_create(k + 1);
    OmItem* anchor = nullptr;
    ctx.vstar.for_each([&](VertexId c) {
      // Widened s-odd window: core and position change together so
      // Parallel-Order never observes a torn (core, label) pair
      // (DESIGN.md §3.2 item 3). The position moves BEFORE the core is
      // published: a worker whose conditional lock observes core = k+1
      // drops c from its queue assuming c is already ordered after its
      // own still-pending candidates — with head insertion that only
      // holds once c's item is physically in O_{k+1} (DESIGN.md §3.2
      // item 6; the paper's line 15/16 order has this race).
      state_.s(c).fetch_add(1, std::memory_order_acq_rel);
      state_.din(c) = 0;
      list.remove(&state_.item(c));
      if (anchor == nullptr)
        next.insert_head(&state_.item(c));
      else
        next.insert_after(anchor, &state_.item(c));
      state_.core(c).store(k + 1, std::memory_order_release);
      state_.s(c).fetch_add(1, std::memory_order_release);
      anchor = &state_.item(c);
      ctx.changed.push_back(c);

      // mcd: the promoted vertex's own value is stale; neighbours now at
      // the promoted level gain one >=-core neighbour. A neighbour whose
      // floor is k+1 now needs c in its prefix, so it is marked dirty;
      // the fence pairs with scan_list's (DESIGN.md §3.1).
      state_.mcd(c).store(kMcdEmpty, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      for (VertexId x : scan_list(ctx, c, k)) {
        const CoreValue cx = state_.core(x).load(std::memory_order_acquire);
        if (cx <= k) continue;
        if (cx == k + 1) state_.mcd_increment_unless_empty(x);
        CoreValue f = k + 1;
        if (state_.floor(x).load(std::memory_order_relaxed) == f)
          state_.floor(x).compare_exchange_strong(f, kFloorDirty,
                                                  std::memory_order_relaxed);
      }
    });
    state_.raise_max_core(k + 1);
  }

  if (opts_.collect_stats) {
    ctx.vplus_hist.record(ctx.vplus_count);
    ctx.vstar_hist.record(ctx.vstar.size());
  }
  for (VertexId x : ctx.locked) state_.lock(x).unlock();
  ctx.locked.clear();
}

// ===========================================================================
// Removal (Algorithm 8)
// ===========================================================================

BatchResult ParallelOrderMaintainer::remove_batch(std::span<const Edge> edges,
                                                  int workers) {
  ++epoch_;
  for (auto& ctx : ctxs_) ctx.touched.clear();
  BatchResult r =
      run_batch(edges, workers, [this](WorkerCtx& ctx, Edge e, bool may_defer) {
        return remove_one(ctx, e, may_defer);
      });
  repair_dout_after_removal(workers);
  return r;
}

ParallelOrderMaintainer::EdgeOutcome ParallelOrderMaintainer::remove_one(
    WorkerCtx& ctx, Edge e, bool may_defer) {
  VertexId u = e.u, v = e.v;
  const std::size_t n = graph_.num_vertices();
  if (u == v || u >= n || v >= n) return EdgeOutcome::kSkipped;

  if (!lock_endpoints(u, v, may_defer)) return EdgeOutcome::kDeferred;
  if (!graph_.has_edge(u, v)) {
    state_.lock(u).unlock();
    state_.lock(v).unlock();
    return EdgeOutcome::kSkipped;
  }
  const CoreValue cu = state_.core(u).load(std::memory_order_relaxed);
  const CoreValue cv = state_.core(v).load(std::memory_order_relaxed);
  const CoreValue k = std::min(cu, cv);

  // CheckMCD before the edge disappears so lazily recomputed values
  // still count the peer (Alg. 8 line 3).
  check_mcd(ctx, u, kInvalidVertex);
  check_mcd(ctx, v, kInvalidVertex);

  // dout of the k-order-lower endpoint drops with the edge.
  if (state_.precedes_stable(u, v))
    state_.dout(u).fetch_sub(1, std::memory_order_relaxed);
  else
    state_.dout(v).fetch_sub(1, std::memory_order_relaxed);
  graph_.remove_edge(u, v);

  ctx.vstar.clear();
  ctx.rq.clear();
  ctx.touched.push_back(u);
  ctx.touched.push_back(v);

  // Endpoint mcd drops only when the removed peer counted toward it
  // (paper guard corrected per DESIGN.md §3.2 item 1).
  bool keep_u = false, keep_v = false;
  if (cv >= cu) {
    state_.mcd(u).fetch_sub(1, std::memory_order_relaxed);
    keep_u = demote_if_unsupported(ctx, u, k);
  }
  if (cu >= cv) {
    state_.mcd(v).fetch_sub(1, std::memory_order_relaxed);
    keep_v = demote_if_unsupported(ctx, v, k);
  }
  if (!keep_u) state_.lock(u).unlock();
  if (!keep_v) state_.lock(v).unlock();

  while (!ctx.rq.empty()) {
    const VertexId w = ctx.rq.front();
    ctx.rq.pop_front();
    ctx.ap.clear();
    for (;;) {
      state_.t(w).fetch_sub(1, std::memory_order_acq_rel);  // 2 -> 1
      // w's core is now k-1; the level it left is the one to scan.
      for (VertexId x : scan_list(ctx, w, k)) {
        if (state_.core(x).load(std::memory_order_acquire) != k) continue;
        if (ctx.ap.contains(x)) continue;
        if (!lock_if(state_.lock(x), [&] {
              return state_.core(x).load(std::memory_order_acquire) == k;
            }))
          continue;  // x was demoted concurrently; skip, no busy wait
        check_mcd(ctx, x, w);
        state_.mcd(x).fetch_sub(1, std::memory_order_relaxed);
        const bool kept = demote_if_unsupported(ctx, x, k);
        if (!kept) state_.lock(x).unlock();
        ctx.ap.insert(x);
        ctx.touched.push_back(x);
      }
      state_.t(w).fetch_sub(1, std::memory_order_acq_rel);  // 1 -> 0
      // CAS(t,1,3) by a neighbour's CheckMCD forces a redo (line 16);
      // A_p persists so already-visited neighbours are not re-counted.
      if (state_.t(w).load(std::memory_order_acquire) <= 0) break;
    }
  }

  // V* members were moved to O_{k-1} at demotion time; release them.
  if (opts_.collect_stats) ctx.remove_vstar_hist.record(ctx.vstar.size());
  ctx.vstar.for_each([&](VertexId w) {
    ctx.touched.push_back(w);
    state_.lock(w).unlock();
  });
  return EdgeOutcome::kApplied;
}

bool ParallelOrderMaintainer::demote_if_unsupported(WorkerCtx& ctx, VertexId x,
                                                    CoreValue k) {
  // Caller holds x's lock, has ensured mcd(x) is fresh and has applied
  // the decrement. Precondition: core(x) == k.
  if (state_.mcd(x).load(std::memory_order_relaxed) >= k) return false;
  // <t, core> must change together (Alg. 8 line 22; DESIGN.md §3.2
  // item 2). kTPublishing brackets the core store: a reader that sees it
  // retries, one that sees the new core sees t != 0, and one that sees
  // t = 2 also sees the new core. Storing t = 2 before the core would
  // let a reader pair the OLD core with the new t and take this
  // demotion for a pending one from the level above.
  state_.t(x).store(kTPublishing, std::memory_order_relaxed);
  state_.core(x).store(k - 1, std::memory_order_release);
  state_.t(x).store(2, std::memory_order_release);
  state_.mcd(x).store(kMcdEmpty, std::memory_order_relaxed);
  ctx.vstar.insert(x);
  ctx.rq.push_back(x);
  ctx.changed.push_back(x);
  // Move x to the tail of O_{k-1} NOW rather than at operation end
  // (paper line 17): with per-demotion appends the global tail order
  // equals the global demotion order, which is what keeps
  // r(v) <= core(v) valid across workers — a vertex that settled
  // (t = 0) before another worker's demotion is also POSITIONED before
  // it, matching its exclusion from that worker's CheckMCD count.
  state_.levels().get_or_create(k).remove(&state_.item(x));
  state_.levels().get_or_create(k - 1).insert_tail(&state_.item(x));
  return true;
}

void ParallelOrderMaintainer::check_mcd(WorkerCtx& ctx, VertexId x,
                                        VertexId propagating_from) {
  // Algorithm 8 CheckMCD: recompute mcd(x) lock-free over x's neighbours.
  // x itself is locked by this worker, so core(x) and adj(x) are stable.
  if (state_.mcd(x).load(std::memory_order_relaxed) != kMcdEmpty) return;
  const CoreValue cx = state_.core(x).load(std::memory_order_relaxed);
  CoreValue m = 0;
  for (VertexId y : scan_list(ctx, x, cx - 1)) {
    const auto [cy, ty] = demotion_snapshot(state_, y);
    if (cy >= cx) {
      ++m;
      continue;
    }
    if (cy == cx - 1 && ty > 0) {
      // y was demoted but its propagation has not finished: count it —
      // its visit to x will apply the decrement. If y is mid-scan we
      // force a redo so case 3 of §4.2.2 cannot lose the update.
      ++m;
      if (y != propagating_from && ty == 1) {
        std::int32_t expected = 1;
        state_.t(y).compare_exchange_strong(expected, 3,
                                            std::memory_order_acq_rel);
      }
      // Uncount y if its demotion is over: t is back to 0, or y has
      // been demoted again, which its lock allows only after the scan
      // of this level ended. Either way that scan passed x without a
      // visit (x is locked here), so y's decrement will never come.
      const auto [cy_now, ty_now] = demotion_snapshot(state_, y);
      if (cy_now != cy || ty_now == 0) --m;
    }
  }
  state_.mcd(x).store(m, std::memory_order_relaxed);
}

void ParallelOrderMaintainer::repair_dout_after_removal(int workers) {
  // Restore d+out exactness at batch quiescence (DESIGN.md §3.1): the
  // union of all touched sets covers every vertex whose successor set
  // can have changed.
  repair_unique_.clear();  // keeps capacity: steady-state flushes
                           // stop allocating here
  for (auto& ctx : ctxs_) {
    for (VertexId v : ctx.touched) {
      if (mark_[v] != epoch_) {
        mark_[v] = epoch_;
        repair_unique_.push_back(v);
      }
    }
    ctx.touched.clear();
  }
  if (repair_unique_.empty()) return;
  // parallel_for's chunked claim, but with the worker's ctx for the scan
  // counts. Each v's list is written only by its own repartition.
  constexpr std::size_t kGrain = 256;
  std::atomic<std::size_t> next{0};
  team_.run(workers, [&](int w) {
    WorkerCtx& ctx = ctxs_[static_cast<std::size_t>(w)];
    for (;;) {
      const std::size_t lo = next.fetch_add(kGrain, std::memory_order_relaxed);
      if (lo >= repair_unique_.size()) return;
      const std::size_t hi = std::min(repair_unique_.size(), lo + kGrain);
      for (std::size_t i = lo; i < hi; ++i) {
        const VertexId v = repair_unique_[i];
        CoreValue out = 0;
        for (VertexId u :
             scan_list(ctx, v, state_.core(v).load(std::memory_order_relaxed)))
          if (state_.precedes_stable(v, u)) ++out;
        state_.dout(v).store(out, std::memory_order_relaxed);
      }
    }
  });
  fold_scan_counts();
}

// ===========================================================================
// Single-edge conveniences and stats
// ===========================================================================

bool ParallelOrderMaintainer::insert_edge(VertexId u, VertexId v) {
  Edge e{u, v};
  BatchResult r = insert_batch(std::span<const Edge>(&e, 1), 1);
  return r.applied == 1;
}

bool ParallelOrderMaintainer::remove_edge(VertexId u, VertexId v) {
  Edge e{u, v};
  BatchResult r = remove_batch(std::span<const Edge>(&e, 1), 1);
  return r.applied == 1;
}

std::size_t ParallelOrderMaintainer::detach_vertex(VertexId v, int workers) {
  if (v >= graph_.num_vertices()) return 0;
  // Materialise the adjacency before mutating: remove_batch's
  // partition-preserving erase reorders v's list and shrinks it, which
  // invalidates the span (same rule as the old vector layout; slab
  // relocation adds no new hazard because removals never relocate).
  const auto nbrs = graph_.neighbors(v);
  std::vector<Edge> edges;
  edges.reserve(nbrs.size());
  for (VertexId u : nbrs) edges.push_back(Edge{v, u});
  return remove_batch(edges, workers).applied;
}

std::size_t ParallelOrderMaintainer::attach_vertex(
    VertexId v, std::span<const VertexId> neighbors, int workers) {
  if (v >= graph_.num_vertices()) return 0;
  std::vector<Edge> edges;
  edges.reserve(neighbors.size());
  for (VertexId u : neighbors) edges.push_back(Edge{v, u});
  return insert_batch(edges, workers).applied;
}

SizeHistogram ParallelOrderMaintainer::insert_vplus_histogram() const {
  SizeHistogram h;
  for (const auto& ctx : ctxs_) h.merge(ctx.vplus_hist);
  return h;
}

SizeHistogram ParallelOrderMaintainer::insert_vstar_histogram() const {
  SizeHistogram h;
  for (const auto& ctx : ctxs_) h.merge(ctx.vstar_hist);
  return h;
}

SizeHistogram ParallelOrderMaintainer::remove_vstar_histogram() const {
  SizeHistogram h;
  for (const auto& ctx : ctxs_) h.merge(ctx.remove_vstar_hist);
  return h;
}

}  // namespace parcore
