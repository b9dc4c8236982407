#include "parallel/korder_heap.h"

#include <algorithm>

#include "sync/backoff.h"

namespace parcore {

void KOrderHeap::reset(OrderList* list, CoreState* state) {
  list_ = list;
  state_ = state;
  // A drained queue has no slots in use; only an abandoned one does.
  if (!heap_.empty()) std::fill(slots_.begin(), slots_.end(), Slot{});
  heap_.clear();
  version_valid_ = false;
}

std::size_t KOrderHeap::home(VertexId v) const {
  std::uint64_t h = v;
  h *= 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(h ^ (h >> 32)) & (slots_.size() - 1);
}

std::size_t KOrderHeap::probe(VertexId v) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(v);
  while (slots_[i].v != kInvalidVertex && slots_[i].v != v) i = (i + 1) & mask;
  return i;
}

void KOrderHeap::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (const Slot& s : old)
    if (s.v != kInvalidVertex) slots_[probe(s.v)] = s;
}

CoreValue KOrderHeap::take(VertexId v) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = probe(v);
  const CoreValue din = slots_[i].din;
  // Backward-shift erase: pull later members of the probe run into the
  // hole unless their home lies cyclically in (hole, j].
  for (std::size_t j = (i + 1) & mask; slots_[j].v != kInvalidVertex;
       j = (j + 1) & mask) {
    if (((j - home(slots_[j].v)) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  return din;
}

void KOrderHeap::push(Entry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

KOrderHeap::Entry KOrderHeap::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

void KOrderHeap::enqueue(VertexId v) {
  std::size_t i = probe(v);
  if (slots_[i].v == v) {  // already queued: only the count grows
    ++slots_[i].din;
    return;
  }
  if ((heap_.size() + 1) * 2 > slots_.size()) {
    grow();
    i = probe(v);
  }
  slots_[i] = Slot{v, 1};
  const std::uint64_t ver = list_->version_started();
  const std::uint32_t sv = state_->s(v).load(std::memory_order_acquire);
  Entry e{list_->snapshot_key(&state_->item(v)), sv, v};
  const bool was_empty = heap_.empty();
  push(e);
  if (was_empty && !version_valid_) {
    version_ = ver;
    version_valid_ = true;
  }
  // Algorithm 10 line 3: any inconsistency -> defer to update_version.
  if (ver != list_->version_started() || ver != version_ || (sv & 1u) != 0 ||
      sv != state_->s(v).load(std::memory_order_acquire))
    version_valid_ = false;
}

void KOrderHeap::update_version() {
  Backoff backoff;
  for (;;) {
    std::uint64_t ver = 0;
    if (!list_->quiescent_version(ver)) {  // O_k.cnt != 0: relabel running
      backoff.pause();
      continue;
    }
    bool clean = true;
    for (Entry& e : heap_) {
      // Per-entry stability loop (Algorithm 9 lines 4-7): the vertex
      // must not be mid-move while we snapshot it.
      for (;;) {
        const std::uint32_t sv =
            state_->s(e.v).load(std::memory_order_acquire);
        if ((sv & 1u) != 0) {
          backoff.pause();
          continue;
        }
        OmKey key = list_->snapshot_key(&state_->item(e.v));
        if (state_->s(e.v).load(std::memory_order_acquire) != sv) continue;
        e.key = key;
        e.s = sv;
        break;
      }
    }
    if (list_->version_started() != ver) {
      clean = false;  // a relabel raced the refresh
    }
    if (!clean) continue;
    std::make_heap(heap_.begin(), heap_.end(), later);
    version_ = ver;
    version_valid_ = true;
    return;
  }
}

void KOrderHeap::uncount(VertexId v) {
  Slot& slot = slots_[probe(v)];  // an empty slot holds din == 0
  if (slot.din > 0) --slot.din;
}

VertexId KOrderHeap::dequeue(CoreValue k, CoreValue* din) {
  for (;;) {
    if (heap_.empty()) return kInvalidVertex;
    // Version Invariant (Definition 5.1): all cached keys must be from
    // the current O_k version.
    if (!version_valid_ || version_ != list_->version_started())
      update_version();

    const Entry e = heap_.front();
    const VertexId v = e.v;
    // Conditional lock with c = (v.core == k): stops waiting the moment
    // another worker promotes v past this level.
    if (!lock_if(state_->lock(v), [&] {
          return state_->core(v).load(std::memory_order_acquire) == k;
        })) {
      pop();
      take(v);  // promoted past k: its count is moot
      continue;
    }
    if (state_->s(v).load(std::memory_order_acquire) != e.s) {
      // v was moved since we cached it; our view of the order is stale.
      state_->lock(v).unlock();
      version_valid_ = false;
      continue;
    }
    pop();
    const CoreValue d = take(v);
    if (din != nullptr) *din = d;
    return v;  // locked, core == k, minimal in k-order
  }
}

}  // namespace parcore
