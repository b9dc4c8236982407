#include "baseline/je.h"

#include <algorithm>
#include <map>

#include "decomp/bz.h"

namespace parcore {

// ===========================================================================
// JeGraph
// ===========================================================================

void JeGraph::build(const DynamicGraph& g) {
  const std::size_t n = g.num_vertices();
  n_ = n;
  adj_ = std::make_unique<AdjList[]>(n);
  num_edges_.store(0, std::memory_order_relaxed);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    AdjList& list = adj_[v];
    list.capacity = static_cast<std::uint32_t>(nbrs.size());
    list.slots = std::make_unique<std::atomic<VertexId>[]>(list.capacity);
    for (std::uint32_t i = 0; i < nbrs.size(); ++i)
      list.slots[i].store(nbrs[i], std::memory_order_relaxed);
    list.size.store(list.capacity, std::memory_order_relaxed);
    list.live.store(list.capacity, std::memory_order_relaxed);
  }
  num_edges_.store(g.num_edges(), std::memory_order_relaxed);
}

void JeGraph::reserve_for(std::span<const Edge> edges) {
  std::vector<std::uint32_t> extra(n_, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v || e.u >= n_ || e.v >= n_) continue;
    ++extra[e.u];
    ++extra[e.v];
  }
  for (VertexId v = 0; v < n_; ++v) {
    AdjList& list = adj_[v];
    const std::uint32_t need =
        list.size.load(std::memory_order_relaxed) + extra[v];
    if (need <= list.capacity) continue;
    auto fresh = std::make_unique<std::atomic<VertexId>[]>(need);
    const std::uint32_t size = list.size.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < size; ++i)
      fresh[i].store(list.slots[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    list.slots = std::move(fresh);
    list.capacity = need;
  }
}

void JeGraph::compact() {
  for (VertexId v = 0; v < n_; ++v) {
    AdjList& list = adj_[v];
    const std::uint32_t size = list.size.load(std::memory_order_relaxed);
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < size; ++i) {
      const VertexId x = list.slots[i].load(std::memory_order_relaxed);
      if (x != kInvalidVertex)
        list.slots[out++].store(x, std::memory_order_relaxed);
    }
    list.size.store(out, std::memory_order_relaxed);
    list.live.store(out, std::memory_order_relaxed);
  }
}

bool JeGraph::has_edge(VertexId u, VertexId v) const {
  if (u == v || u >= n_ || v >= n_) return false;
  const VertexId base = live_degree(u) <= live_degree(v) ? u : v;
  const VertexId needle = base == u ? v : u;
  bool found = false;
  for_each_neighbor(base, [&](VertexId x) {
    if (x == needle) found = true;
  });
  return found;
}

void JeGraph::append_edge(VertexId u, VertexId v) {
  for (VertexId a : {u, v}) {
    const VertexId b = a == u ? v : u;
    AdjList& list = adj_[a];
    {
      SpinGuard g(list.append_lock);
      const std::uint32_t idx = list.size.load(std::memory_order_relaxed);
      // reserve_for must have been called with this batch.
      if (idx >= list.capacity) std::abort();
      list.slots[idx].store(b, std::memory_order_relaxed);
      list.size.store(idx + 1, std::memory_order_release);
    }
    list.live.fetch_add(1, std::memory_order_relaxed);
  }
  num_edges_.fetch_add(1, std::memory_order_relaxed);
}

bool JeGraph::tombstone_in(VertexId u, VertexId v) {
  AdjList& list = adj_[u];
  const std::uint32_t size = list.size.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < size; ++i) {
    if (list.slots[i].load(std::memory_order_relaxed) == v) {
      list.slots[i].store(kInvalidVertex, std::memory_order_relaxed);
      list.live.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool JeGraph::tombstone_edge(VertexId u, VertexId v) {
  if (u == v || u >= n_ || v >= n_) return false;
  if (!tombstone_in(u, v)) return false;
  tombstone_in(v, u);
  num_edges_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

// ===========================================================================
// JeMaintainer
// ===========================================================================

void JeMaintainer::Ctx::ensure(std::size_t n) {
  if (visit_mark.size() < n) {
    visit_mark.assign(n, 0);
    evict_mark.assign(n, 0);
    vstar_mark.assign(n, 0);
    cd.assign(n, 0);
    epoch = 0;
  }
}

void JeMaintainer::Ctx::begin_op() {
  ++epoch;
  if (epoch == 0) {  // wrapped: wipe marks
    std::fill(visit_mark.begin(), visit_mark.end(), 0);
    std::fill(evict_mark.begin(), evict_mark.end(), 0);
    std::fill(vstar_mark.begin(), vstar_mark.end(), 0);
    epoch = 1;
  }
  stack.clear();
  estack.clear();
  visited_list.clear();
  vstar.clear();
}

JeMaintainer::JeMaintainer(const DynamicGraph& g, ThreadTeam& team,
                           Options opts)
    : team_(team), opts_(opts) {
  ctxs_.resize(static_cast<std::size_t>(team_.max_workers()));
  rebuild(g);
}

void JeMaintainer::rebuild(const DynamicGraph& g) {
  n_ = g.num_vertices();
  graph_.build(g);
  core_ = std::make_unique<std::atomic<CoreValue>[]>(n_);
  mcd_ = std::make_unique<std::atomic<CoreValue>[]>(n_);
  Decomposition d = bz_decompose(g);
  max_core_ = d.max_core;
  for (VertexId v = 0; v < n_; ++v)
    core_[v].store(d.core[v], std::memory_order_relaxed);
  for (VertexId v = 0; v < n_; ++v) {
    CoreValue m = 0;
    for (VertexId u : g.neighbors(v))
      if (d.core[u] >= d.core[v]) ++m;
    mcd_[v].store(m, std::memory_order_relaxed);
  }
  for (auto& ctx : ctxs_) ctx.ensure(n_);
  level_lock_count_ = 0;
  ensure_level_locks(static_cast<std::size_t>(max_core_) + 3);
}

std::vector<CoreValue> JeMaintainer::cores() const {
  std::vector<CoreValue> out(n_);
  for (VertexId v = 0; v < n_; ++v)
    out[v] = core_[v].load(std::memory_order_relaxed);
  return out;
}

void JeMaintainer::ensure_level_locks(std::size_t count) {
  if (count <= level_lock_count_) return;
  level_locks_ = std::make_unique<Spinlock[]>(count);
  level_lock_count_ = count;
}

CoreValue JeMaintainer::pcd(const Ctx& ctx, VertexId w, CoreValue k) const {
  CoreValue value = 0;
  graph_.for_each_neighbor(w, [&](VertexId x) {
    const CoreValue cx = core_[x].load(std::memory_order_acquire);
    if (cx > k || (cx == k && !ctx.evicted(x) &&
                   mcd_[x].load(std::memory_order_relaxed) > k))
      ++value;
  });
  return value;
}

CoreValue JeMaintainer::recompute_mcd(VertexId w) const {
  const CoreValue cw = core_[w].load(std::memory_order_relaxed);
  CoreValue m = 0;
  graph_.for_each_neighbor(w, [&](VertexId x) {
    if (core_[x].load(std::memory_order_relaxed) >= cw) ++m;
  });
  return m;
}

bool JeMaintainer::traversal_insert(Ctx& ctx, Edge e, CoreValue k) {
  const VertexId u = e.u, v = e.v;
  if (graph_.has_edge(u, v)) return false;
  const CoreValue cu = core_[u].load(std::memory_order_relaxed);
  const CoreValue cv = core_[v].load(std::memory_order_relaxed);
  graph_.append_edge(u, v);
  // Only the (<=)-core endpoint gains a >=-core neighbour; that endpoint
  // is at level k, which this worker has locked.
  if (cv >= cu) mcd_[u].fetch_add(1, std::memory_order_relaxed);
  if (cu >= cv) mcd_[v].fetch_add(1, std::memory_order_relaxed);

  ctx.begin_op();
  const VertexId root = cu <= cv ? u : v;
  auto visit = [&](VertexId x) {
    ctx.visit_mark[x] = ctx.epoch;
    ctx.cd[x] = pcd(ctx, x, k);
    ctx.stack.push_back(x);
    ctx.visited_list.push_back(x);
  };
  visit(root);

  // Iterative eviction cascade: decrement cd of visited neighbours and
  // cascade anything dropping to <= k (deep chains occur on the
  // uniform-core graphs, so no recursion).
  auto evict_from = [&](VertexId w0) {
    ctx.evict_mark[w0] = ctx.epoch;
    ctx.estack.push_back(w0);
    while (!ctx.estack.empty()) {
      const VertexId w = ctx.estack.back();
      ctx.estack.pop_back();
      graph_.for_each_neighbor(w, [&](VertexId x) {
        if (core_[x].load(std::memory_order_relaxed) != k) return;
        if (!ctx.visited(x) || ctx.evicted(x)) return;
        if (--ctx.cd[x] <= k) {
          ctx.evict_mark[x] = ctx.epoch;
          ctx.estack.push_back(x);
        }
      });
    }
  };

  while (!ctx.stack.empty()) {
    const VertexId w = ctx.stack.back();
    ctx.stack.pop_back();
    if (ctx.evicted(w)) continue;
    if (ctx.cd[w] > k) {
      graph_.for_each_neighbor(w, [&](VertexId x) {
        if (core_[x].load(std::memory_order_relaxed) != k) return;
        if (ctx.visited(x)) return;
        if (mcd_[x].load(std::memory_order_relaxed) <= k) return;
        visit(x);
      });
    } else {
      evict_from(w);
    }
  }

  // V* = visited \ evicted. Cores first, so mcd recomputation and the
  // neighbour increments both see the final levels.
  bool any = false;
  for (VertexId w : ctx.visited_list) {
    if (ctx.evicted(w)) continue;
    core_[w].store(k + 1, std::memory_order_release);
    any = true;
  }
  if (any) {
    for (VertexId w : ctx.visited_list) {
      if (ctx.evicted(w)) continue;
      mcd_[w].store(recompute_mcd(w), std::memory_order_relaxed);
      graph_.for_each_neighbor(w, [&](VertexId x) {
        if (core_[x].load(std::memory_order_relaxed) != k + 1) return;
        if (ctx.visited(x) && !ctx.evicted(x)) return;  // recomputed exactly
        mcd_[x].fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  return true;
}

bool JeMaintainer::traversal_remove(Ctx& ctx, Edge e, CoreValue k) {
  const VertexId u = e.u, v = e.v;
  if (!graph_.tombstone_edge(u, v)) return false;
  const CoreValue cu = core_[u].load(std::memory_order_relaxed);
  const CoreValue cv = core_[v].load(std::memory_order_relaxed);
  if (cv >= cu) mcd_[u].fetch_sub(1, std::memory_order_relaxed);
  if (cu >= cv) mcd_[v].fetch_sub(1, std::memory_order_relaxed);

  ctx.begin_op();
  auto consider = [&](VertexId w) {
    if (core_[w].load(std::memory_order_relaxed) == k && !ctx.in_vstar(w) &&
        mcd_[w].load(std::memory_order_relaxed) < k) {
      ctx.vstar_mark[w] = ctx.epoch;
      ctx.vstar.push_back(w);
      ctx.stack.push_back(w);
    }
  };
  consider(u);
  consider(v);
  while (!ctx.stack.empty()) {
    const VertexId w = ctx.stack.back();
    ctx.stack.pop_back();
    graph_.for_each_neighbor(w, [&](VertexId x) {
      if (core_[x].load(std::memory_order_relaxed) != k) return;
      if (ctx.in_vstar(x)) return;
      mcd_[x].fetch_sub(1, std::memory_order_relaxed);
      consider(x);
    });
  }
  // Demote at the end (Algorithm 3 semantics), then repair mcd.
  for (VertexId w : ctx.vstar)
    core_[w].store(k - 1, std::memory_order_release);
  for (VertexId w : ctx.vstar)
    mcd_[w].store(recompute_mcd(w), std::memory_order_relaxed);
  return true;
}

template <bool kInsert>
std::size_t JeMaintainer::run_rounds(std::span<const Edge> edges,
                                     int workers) {
  std::vector<Edge> pending;
  pending.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u == e.v || e.u >= n_ || e.v >= n_) continue;
    pending.push_back(e);
  }

  std::size_t applied = 0;
  int round = 0;
  while (!pending.empty()) {
    ++round;
    // Preprocessing: group edges by current level ("join edge sets").
    std::map<CoreValue, std::vector<Edge>> groups;
    for (const Edge& e : pending) {
      const CoreValue k =
          std::min(core_[e.u].load(std::memory_order_relaxed),
                   core_[e.v].load(std::memory_order_relaxed));
      // A removal at level 0 is impossible: a core-0 endpoint is
      // isolated, so the edge cannot exist any more.
      if (!kInsert && k == 0) continue;
      groups[k].push_back(e);
    }
    if (groups.empty()) break;
    // Insertion can push the max level one up per round.
    CoreValue top = groups.rbegin()->first;
    ensure_level_locks(static_cast<std::size_t>(top) + 3);

    std::vector<std::pair<CoreValue, std::vector<Edge>*>> work;
    work.reserve(groups.size());
    for (auto& [k, list] : groups) work.emplace_back(k, &list);

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    const bool sequential_fallback = round > opts_.max_rounds;
    const int round_workers = sequential_fallback ? 1 : workers;
    // The fallback silently serialises convergence-tail rounds; count
    // each one so a workload stuck past max_rounds is visible instead
    // of just "JE got slow".
    if (sequential_fallback) ++sequential_fallbacks_;
    team_.run(round_workers, [&](int wid) {
      Ctx& ctx = ctxs_[static_cast<std::size_t>(wid)];
      std::size_t local_done = 0;
      for (;;) {
        const std::size_t gi = next.fetch_add(1, std::memory_order_relaxed);
        if (gi >= work.size()) break;
        const CoreValue k = work[gi].first;
        std::vector<Edge>& group = *work[gi].second;
        // Ordered level-pair locks: insert touches {k, k+1}, removal
        // {k-1, k}; acquiring ascending prevents deadlock.
        const CoreValue lo = kInsert ? k : k - 1;
        const CoreValue hi = kInsert ? k + 1 : k;
        SpinGuard glo(level_locks_[static_cast<std::size_t>(lo)]);
        SpinGuard ghi(level_locks_[static_cast<std::size_t>(hi)]);
        for (const Edge& e : group) {
          const CoreValue know =
              std::min(core_[e.u].load(std::memory_order_relaxed),
                       core_[e.v].load(std::memory_order_relaxed));
          if (know != k) {
            ctx.residual.push_back(e);  // level moved; defer to next round
            continue;
          }
          const bool ok = kInsert ? traversal_insert(ctx, e, k)
                                  : traversal_remove(ctx, e, k);
          if (ok) ++local_done;
        }
      }
      done.fetch_add(local_done, std::memory_order_relaxed);
    });
    applied += done.load(std::memory_order_relaxed);

    pending.clear();
    for (auto& ctx : ctxs_) {
      pending.insert(pending.end(), ctx.residual.begin(), ctx.residual.end());
      ctx.residual.clear();
    }
    if (kInsert) {
      CoreValue mx = max_core_;
      for (auto& [k, list] : groups) mx = std::max(mx, k + 1);
      max_core_ = mx;
    }
  }
  return applied;
}

std::size_t JeMaintainer::insert_batch(std::span<const Edge> edges,
                                       int workers) {
  graph_.compact();
  graph_.reserve_for(edges);
  return run_rounds<true>(edges, workers);
}

std::size_t JeMaintainer::remove_batch(std::span<const Edge> edges,
                                       int workers) {
  graph_.compact();
  return run_rounds<false>(edges, workers);
}

bool JeMaintainer::insert_edge(VertexId u, VertexId v) {
  Edge e{u, v};
  return insert_batch(std::span<const Edge>(&e, 1), 1) == 1;
}

bool JeMaintainer::remove_edge(VertexId u, VertexId v) {
  Edge e{u, v};
  return remove_batch(std::span<const Edge>(&e, 1), 1) == 1;
}

}  // namespace parcore
