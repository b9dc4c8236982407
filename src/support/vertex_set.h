// Insertion-ordered open-addressing set of vertex ids.
//
// The maintainers' per-worker sets (V*, V+, A_p, queue membership) are
// tiny for almost every operation (paper Fig. 1: |V+| <= 10 for >97% of
// edges) but must support O(1) insert/contains/erase plus iteration in
// insertion order (candidate promotion preserves k-order). A dense
// entries vector + power-of-two probe table gives all of that without
// touching the heap after warm-up. Each entry remembers its slot, so
// clear() costs O(members), not O(table): the table never shrinks, and
// one large V* early in a run must not tax every later tiny one.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "support/types.h"

namespace parcore {

class VertexSet {
 public:
  explicit VertexSet(std::size_t initial_capacity = 16) {
    std::size_t cap = 16;
    while (cap < initial_capacity * 2) cap <<= 1;
    slots_.assign(cap, kEmptySlot);
  }

  /// Inserts v; returns false if already present (and alive).
  bool insert(VertexId v) {
    maybe_grow();
    std::size_t idx = probe(v);
    if (idx != kNotFound) {
      Entry& e = entries_[idx];
      if (e.alive) return false;
      e.alive = true;  // revive a tombstoned entry; order = first insertion
      ++size_;
      return true;
    }
    const std::size_t slot = find_slot(v);
    slots_[slot] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{v, static_cast<std::uint32_t>(slot), true});
    ++size_;
    return true;
  }

  bool contains(VertexId v) const {
    std::size_t idx = probe(v);
    return idx != kNotFound && entries_[idx].alive;
  }

  /// Removes v; returns false if not present.
  bool erase(VertexId v) {
    std::size_t idx = probe(v);
    if (idx == kNotFound || !entries_[idx].alive) return false;
    entries_[idx].alive = false;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of vertices ever inserted (alive + erased); V+ style count.
  std::size_t total_inserted() const { return entries_.size(); }

  /// Visits alive members in insertion order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_)
      if (e.alive) fn(e.v);
  }

  /// Visits every vertex ever inserted (alive or erased).
  template <typename Fn>
  void for_each_ever(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.v);
  }

  /// Empties the set in O(members): erase only tombstones an entry, so
  /// the occupied slots are exactly the entries' own.
  void clear() {
    for (const Entry& e : entries_) slots_[e.slot] = kEmptySlot;
    entries_.clear();
    size_ = 0;
  }

 private:
  struct Entry {
    VertexId v;
    std::uint32_t slot;  // index into slots_, kept current by maybe_grow
    bool alive;
  };

  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;
  static constexpr std::size_t kNotFound = ~static_cast<std::size_t>(0);

  static std::uint64_t hash(VertexId v) {
    std::uint64_t k = v;
    k *= 0x9e3779b97f4a7c15ULL;
    k ^= k >> 32;
    return k;
  }

  std::size_t find_slot(VertexId v) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(v) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    return i;
  }

  std::size_t probe(VertexId v) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(v) & mask;
    while (slots_[i] != kEmptySlot) {
      std::size_t idx = slots_[i];
      if (entries_[idx].v == v) return idx;
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  void maybe_grow() {
    if ((entries_.size() + 1) * 2 < slots_.size()) return;
    slots_.assign(slots_.size() * 2, kEmptySlot);
    for (std::size_t idx = 0; idx < entries_.size(); ++idx) {
      const std::size_t i = find_slot(entries_[idx].v);
      slots_[i] = static_cast<std::uint32_t>(idx);
      entries_[idx].slot = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Entry> entries_;
  std::size_t size_ = 0;
};

}  // namespace parcore
