#include "maint/core_state.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

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

// Fresh arrays are value-initialised: every t, s, din and counter
// starts at 0, no lock held.
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

bool CoreState::install(DynamicGraph& g, std::span<const CoreValue> cores,
                        std::span<const VertexId> order, const Options& opts,
                        std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  const std::size_t n = g.num_vertices();
  if (cores.size() != n || order.size() != n)
    return fail("saved state sized for " + std::to_string(cores.size()) +
                "/" + std::to_string(order.size()) +
                " vertices, graph has " + std::to_string(n));

  // The order must be a permutation whose cores, from 0 up, never
  // decrease along it (a level-ascending concatenation); appending in
  // order then fills each O_k in k-order.
  std::vector<std::size_t> rank(n);
  std::vector<bool> seen(n, false);
  CoreValue prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    if (v >= n || seen[v])
      return fail("order is not a permutation (entry " + std::to_string(i) +
                  ")");
    seen[v] = true;
    rank[v] = i;
    if (cores[v] < prev)
      return fail("cores along the saved order decrease at entry " +
                  std::to_string(i));
    prev = cores[v];
  }
  const CoreValue maxk = prev;

  levels_.clear();
  allocate(n);
  max_core_.store(maxk, std::memory_order_relaxed);
  levels_.configure(opts.om_group_capacity);
  levels_.ensure_capacity(static_cast<std::size_t>(maxk) + 2);
  for (VertexId v : order) {
    core_[v].core.store(cores[v], std::memory_order_relaxed);
    items_[v].vertex = v;
    levels_.get_or_create(cores[v]).insert_tail(&items_[v]);
  }

  // d+out(v) = # neighbours after v in the order; mcd(v) per Definition
  // 3.8; the same pass partitions adj(v) at floor(v). The k-order bound
  // dout <= core and the coreness lower bound mcd >= core hold for any
  // valid image; violating either means it (though CRC-clean, if read
  // from a checkpoint) does not describe this graph.
  for (VertexId v = 0; v < n_; ++v) {
    CoreValue out = 0, m = 0;
    const CoreValue f = cores[v] - 1;
    g.repartition(v, [&](VertexId u) {
      if (rank[u] > rank[v]) ++out;
      if (cores[u] >= cores[v]) ++m;
      return cores[u] >= f;
    });
    if (out > cores[v])
      return fail("vertex " + std::to_string(v) + " violates the k-order " +
                  "bound (dout " + std::to_string(out) + " > core " +
                  std::to_string(cores[v]) + ")");
    if (m < cores[v])
      return fail("vertex " + std::to_string(v) + " has mcd " +
                  std::to_string(m) + " < core " + std::to_string(cores[v]));
    dout_[v].store(out, std::memory_order_relaxed);
    mcd_[v].store(m, std::memory_order_relaxed);
    core_[v].floor.store(f, std::memory_order_relaxed);
  }
  return true;
}

void CoreState::initialize(DynamicGraph& g, const Options& opts) {
  const Decomposition d = bz_decompose(g);
  std::string err;
  if (!install(g, d.core, d.peel_order, opts, &err))
    throw std::logic_error("bz_decompose yielded an invalid k-order: " + err);
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
