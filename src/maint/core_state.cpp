#include "maint/core_state.h"

#include <algorithm>
#include <sstream>

#include "decomp/parallel_peel.h"
#include "decomp/verify.h"
#include "sync/backoff.h"

namespace parcore {

void LevelDirectory::ensure_capacity(std::size_t cap) {
  if (cap <= slots_.size()) return;
  cap = std::max(cap, slots_.size() * 2);
  std::vector<std::atomic<OrderList*>> fresh(cap);
  for (std::size_t i = 0; i < slots_.size(); ++i)
    fresh[i].store(slots_[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  slots_ = std::move(fresh);
}

OrderList& LevelDirectory::get_or_create(CoreValue k) {
  const auto idx = static_cast<std::size_t>(k);
  OrderList* list = slots_[idx].load(std::memory_order_acquire);
  if (list != nullptr) return *list;
  MutexGuard g(create_mu_);
  list = slots_[idx].load(std::memory_order_relaxed);
  if (list == nullptr) {
    storage_.emplace_back(k, group_capacity_);
    list = &storage_.back();
    slots_[idx].store(list, std::memory_order_release);
  }
  return *list;
}

void LevelDirectory::clear() {
  // Quiescent by contract; the guard keeps storage_ inside the
  // machine-checked discipline.
  MutexGuard g(create_mu_);
  slots_.clear();
  storage_.clear();
}

std::size_t LevelDirectory::compact_all() {
  std::size_t reclaimed = 0;
  for (auto& slot : slots_)
    if (OrderList* list = slot.load(std::memory_order_acquire))
      reclaimed += list->compact();
  return reclaimed;
}

void CoreState::allocate(std::size_t n) {
  n_ = n;
  core_ = std::make_unique<CoreAndFloor[]>(n_);
  dout_ = std::make_unique<std::atomic<CoreValue>[]>(n_);
  mcd_ = std::make_unique<std::atomic<CoreValue>[]>(n_);
  t_ = std::make_unique<std::atomic<std::int32_t>[]>(n_);
  s_ = std::make_unique<std::atomic<std::uint32_t>[]>(n_);
  din_.assign(n_, 0);
  locks_ = std::make_unique<Spinlock[]>(n_);
  items_ = std::make_unique<OmItem[]>(n_);
}

void CoreState::initialize(DynamicGraph& g, const Options& opts) {
  allocate(g.num_vertices());

  Decomposition d = bz_decompose(g);
  max_core_.store(d.max_core, std::memory_order_relaxed);

  levels_.clear();
  levels_.configure(opts.om_group_capacity);
  levels_.ensure_capacity(static_cast<std::size_t>(d.max_core) + 2);

  std::vector<std::size_t> rank(n_);
  for (std::size_t i = 0; i < d.peel_order.size(); ++i)
    rank[d.peel_order[i]] = i;

  for (VertexId v = 0; v < n_; ++v) {
    core_[v].core.store(d.core[v], std::memory_order_relaxed);
    t_[v].store(0, std::memory_order_relaxed);
    s_[v].store(0, std::memory_order_relaxed);
    items_[v].vertex = v;
  }

  // Build O_k lists by appending in peel order (core values along the
  // peel order are non-decreasing, so each list receives its vertices in
  // k-order).
  for (VertexId v : d.peel_order) {
    OrderList& list = levels_.get_or_create(d.core[v]);
    list.insert_tail(&items_[v]);
  }

  // d+out(v) = # neighbours peeled after v; mcd(v) per Definition 3.8;
  // the same pass partitions adj(v) at floor(v) = core(v) - 1.
  for (VertexId v = 0; v < n_; ++v) {
    CoreValue out = 0, m = 0;
    const CoreValue f = d.core[v] - 1;
    g.repartition(v, [&](VertexId u) {
      if (rank[u] > rank[v]) ++out;
      if (d.core[u] >= d.core[v]) ++m;
      return d.core[u] >= f;
    });
    dout_[v].store(out, std::memory_order_relaxed);
    mcd_[v].store(m, std::memory_order_relaxed);
    core_[v].floor.store(f, std::memory_order_relaxed);
  }
}

void CoreState::initialize_parallel(DynamicGraph& g, ThreadTeam& team,
                                    int workers, const Options& opts) {
  allocate(g.num_vertices());

  BulkDecomposition d = parallel_decompose(g, team, workers);
  max_core_.store(d.max_core, std::memory_order_relaxed);

  levels_.clear();
  levels_.configure(opts.om_group_capacity);
  levels_.ensure_capacity(static_cast<std::size_t>(d.max_core) + 2);

  std::vector<std::size_t> rank(n_);
  for (std::size_t i = 0; i < d.order.size(); ++i) rank[d.order[i]] = i;

  parallel_for(team, workers, 0, n_, [&](std::size_t i) {
    const auto v = static_cast<VertexId>(i);
    core_[v].core.store(d.core[v], std::memory_order_relaxed);
    t_[v].store(0, std::memory_order_relaxed);
    s_[v].store(0, std::memory_order_relaxed);
    items_[v].vertex = v;
  });

  // The O_k appends mutate shared OM groups; they stay sequential (the
  // peel order is already level-ascending, so each list receives its
  // vertices in k-order, exactly like the BZ path).
  for (VertexId v : d.order) {
    OrderList& list = levels_.get_or_create(d.core[v]);
    list.insert_tail(&items_[v]);
  }

  // d+out / mcd / the partition at floor(v) are per-vertex passes that
  // write only v's own list; the O(m) pass is the second-largest
  // cold-start cost after the peel.
  parallel_for(team, workers, 0, n_, [&](std::size_t i) {
    const auto v = static_cast<VertexId>(i);
    CoreValue out = 0, m = 0;
    const CoreValue f = d.core[v] - 1;
    g.repartition(v, [&](VertexId u) {
      if (rank[u] > rank[v]) ++out;
      if (d.core[u] >= d.core[v]) ++m;
      return d.core[u] >= f;
    });
    dout_[v].store(out, std::memory_order_relaxed);
    mcd_[v].store(m, std::memory_order_relaxed);
    core_[v].floor.store(f, std::memory_order_relaxed);
  });
}

bool CoreState::initialize_from_order(DynamicGraph& g,
                                      const SavedCoreOrder& saved,
                                      const Options& opts,
                                      std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  const std::size_t n = g.num_vertices();
  if (saved.core.size() != n || saved.order.size() != n)
    return fail("saved state sized for " + std::to_string(saved.core.size()) +
                "/" + std::to_string(saved.order.size()) +
                " vertices, graph has " + std::to_string(n));

  allocate(n);
  for (VertexId v = 0; v < n_; ++v) {
    t_[v].store(0, std::memory_order_relaxed);
    s_[v].store(0, std::memory_order_relaxed);
    core_[v].floor.store(kFloorDirty, std::memory_order_relaxed);
    items_[v].vertex = v;
  }

  // The order must be a permutation with non-decreasing cores along it
  // (a level-ascending concatenation); appending in saved order then
  // reproduces each O_k exactly.
  std::vector<std::size_t> rank(n_);
  std::vector<bool> seen(n_, false);
  CoreValue prev = 0;
  for (std::size_t i = 0; i < saved.order.size(); ++i) {
    const VertexId v = saved.order[i];
    if (v >= n_ || seen[v])
      return fail("order is not a permutation (entry " + std::to_string(i) +
                  ")");
    seen[v] = true;
    rank[v] = i;
    const CoreValue k = saved.core[v];
    if (k < 0 || k < prev)
      return fail("cores along the saved order decrease at entry " +
                  std::to_string(i));
    prev = k;
  }
  const CoreValue maxk = n_ > 0 ? saved.core[saved.order.back()] : 0;
  max_core_.store(maxk, std::memory_order_relaxed);

  levels_.clear();
  levels_.configure(opts.om_group_capacity);
  levels_.ensure_capacity(static_cast<std::size_t>(maxk) + 2);
  for (VertexId v : saved.order) {
    core_[v].core.store(saved.core[v], std::memory_order_relaxed);
    levels_.get_or_create(saved.core[v]).insert_tail(&items_[v]);
  }

  // dout from the restored ranks, mcd from the restored cores — the same
  // definitions initialize() computes from the peel order. The k-order
  // bound dout <= core and the coreness lower bound mcd >= core must
  // hold for any valid saved state; violating either means the file
  // (though CRC-clean) does not describe this graph.
  for (VertexId v = 0; v < n_; ++v) {
    CoreValue out = 0, m = 0;
    const CoreValue f = saved.core[v] - 1;
    g.repartition(v, [&](VertexId u) {
      if (rank[u] > rank[v]) ++out;
      if (saved.core[u] >= saved.core[v]) ++m;
      return saved.core[u] >= f;
    });
    if (out > saved.core[v])
      return fail("vertex " + std::to_string(v) + " violates the k-order " +
                  "bound (dout " + std::to_string(out) + " > core " +
                  std::to_string(saved.core[v]) + ")");
    if (m < saved.core[v])
      return fail("vertex " + std::to_string(v) + " has mcd " +
                  std::to_string(m) + " < core " +
                  std::to_string(saved.core[v]));
    dout_[v].store(out, std::memory_order_relaxed);
    mcd_[v].store(m, std::memory_order_relaxed);
    core_[v].floor.store(f, std::memory_order_relaxed);
  }
  return true;
}

SavedCoreOrder CoreState::save_order() const {
  SavedCoreOrder out;
  out.core = cores_snapshot();
  out.order.reserve(n_);
  for (std::size_t k = 0; k < levels_.capacity(); ++k) {
    const OrderList* list = levels_.get(static_cast<CoreValue>(k));
    if (list == nullptr) continue;
    const std::vector<VertexId> level = list->to_vector();
    out.order.insert(out.order.end(), level.begin(), level.end());
  }
  return out;
}

void CoreState::raise_max_core(CoreValue k) {
  CoreValue cur = max_core_.load(std::memory_order_relaxed);
  while (cur < k &&
         !max_core_.compare_exchange_weak(cur, k, std::memory_order_relaxed)) {
  }
}

std::vector<CoreValue> CoreState::cores_snapshot() const {
  std::vector<CoreValue> out(n_);
  for (VertexId v = 0; v < n_; ++v)
    out[v] = core_[v].core.load(std::memory_order_relaxed);
  return out;
}

bool CoreState::precedes_stable(VertexId a, VertexId b) const {
  const CoreValue ca = core_[a].core.load(std::memory_order_acquire);
  const CoreValue cb = core_[b].core.load(std::memory_order_acquire);
  if (ca != cb) return ca < cb;
  return OrderList::precedes(&items_[a], &items_[b]);
}

bool CoreState::precedes_guarded(VertexId a, VertexId b) const {
  Backoff backoff;
  for (;;) {
    std::uint32_t sa, sb;
    for (;;) {
      sa = s_[a].load(std::memory_order_acquire);
      sb = s_[b].load(std::memory_order_acquire);
      if ((sa & 1u) == 0 && (sb & 1u) == 0) break;
      backoff.pause();
    }
    const CoreValue ca = core_[a].core.load(std::memory_order_acquire);
    const CoreValue cb = core_[b].core.load(std::memory_order_acquire);
    const bool r =
        ca != cb ? ca < cb : OrderList::precedes(&items_[a], &items_[b]);
    if (s_[a].load(std::memory_order_acquire) == sa &&
        s_[b].load(std::memory_order_acquire) == sb)
      return r;
  }
}

CoreValue CoreState::compute_dout(const DynamicGraph& g, VertexId v) const {
  CoreValue out = 0;
  for (VertexId u : g.neighbors(v))
    if (precedes_stable(v, u)) ++out;
  return out;
}

CoreValue CoreState::compute_mcd(const DynamicGraph& g, VertexId v) const {
  const CoreValue cv = core_[v].core.load(std::memory_order_relaxed);
  CoreValue m = 0;
  for (VertexId u : g.neighbors(v))
    if (core_[u].core.load(std::memory_order_relaxed) >= cv) ++m;
  return m;
}

void CoreState::mcd_increment_unless_empty(VertexId v) {
  CoreValue cur = mcd_[v].load(std::memory_order_relaxed);
  while (cur != kMcdEmpty) {
    if (mcd_[v].compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_relaxed))
      return;
  }
}

bool CoreState::check_invariants(const DynamicGraph& g, std::string* error,
                                 bool check_cores) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };

  // 1. Per-list structural validity + membership / rank construction.
  std::vector<std::size_t> rank(n_, 0);
  std::vector<bool> seen(n_, false);
  std::size_t position = 0;
  const CoreValue maxk = max_core();
  for (CoreValue k = 0; k <= maxk; ++k) {
    const OrderList* list = levels_.get(k);
    if (list == nullptr) continue;
    std::string om_err;
    if (!list->validate(&om_err)) return fail("order list invalid: " + om_err);
    for (VertexId v : list->to_vector()) {
      if (seen[v]) return fail("vertex appears in two order lists");
      seen[v] = true;
      if (core_[v].core.load(std::memory_order_relaxed) != k) {
        std::ostringstream os;
        os << "vertex " << v << " in O_" << k << " but core is "
           << core_[v].core.load(std::memory_order_relaxed);
        return fail(os.str());
      }
      rank[v] = position++;
    }
  }
  for (VertexId v = 0; v < n_; ++v)
    if (!seen[v]) {
      std::ostringstream os;
      os << "vertex " << v << " missing from all order lists (core "
         << core_[v].core.load(std::memory_order_relaxed) << ", max level "
         << maxk << ")";
      return fail(os.str());
    }

  // 2. Per-vertex field invariants.
  for (VertexId v = 0; v < n_; ++v) {
    if (din_[v] != 0) return fail("din not reset");
    if (t_[v].load(std::memory_order_relaxed) != 0)
      return fail("t status not reset");
    if ((s_[v].load(std::memory_order_relaxed) & 1u) != 0)
      return fail("s status odd at quiescence");
    if (locks_[v].is_locked()) return fail("vertex lock held at quiescence");

    const CoreValue expected_dout = compute_dout(g, v);
    if (dout_[v].load(std::memory_order_relaxed) != expected_dout) {
      std::ostringstream os;
      os << "vertex " << v << ": dout "
         << dout_[v].load(std::memory_order_relaxed) << " != actual "
         << expected_dout;
      return fail(os.str());
    }
    const CoreValue m = mcd_[v].load(std::memory_order_relaxed);
    if (m != kMcdEmpty && m != compute_mcd(g, v)) {
      std::ostringstream os;
      os << "vertex " << v << ": mcd " << m << " != actual "
         << compute_mcd(g, v);
      return fail(os.str());
    }
  }

  // 3. Valid-k-order bound.
  std::vector<CoreValue> cores = cores_snapshot();
  std::string korder_err;
  if (!verify_korder_bound(g, cores, rank, &korder_err))
    return fail("k-order bound: " + korder_err);

  // 4. Optional full core recomputation.
  if (check_cores) {
    std::string core_err;
    if (!verify_cores(g, cores, &core_err))
      return fail("core numbers: " + core_err);
  }
  return true;
}

bool CoreState::check_prefix(const DynamicGraph& g, std::string* error) const {
  for (VertexId v = 0; v < n_; ++v) {
    const CoreValue f = core_[v].floor.load(std::memory_order_relaxed);
    if (f == kFloorDirty) continue;
    const auto adj = g.neighbors(v);
    for (std::size_t i = g.prefix(v).size(); i < adj.size(); ++i) {
      const CoreValue c = core_[adj[i]].core.load(std::memory_order_relaxed);
      if (c < f) continue;
      if (error) {
        std::ostringstream os;
        os << "vertex " << v << " (core "
           << core_[v].core.load(std::memory_order_relaxed) << ", floor " << f
           << "): neighbour " << adj[i] << " with core " << c
           << " lies outside the prefix";
        *error = os.str();
      }
      return false;
    }
  }
  return true;
}

}  // namespace parcore
