// Delta-versioned epoch snapshots of the core-number index (DESIGN.md
// §10, ISSUE 5).
//
// The streaming engine used to publish each epoch by deep-copying the
// whole core vector — O(n) per flush even for a 10-edge batch, exactly
// the locality the order-based maintainer works to preserve (per-update
// cost tracks |V*|, not n; see arXiv:2106.03824, arXiv:2201.07103).
// `VersionedCoreIndex` replaces that copy with a paged copy-on-write
// index: core numbers live in fixed-size pages held through refcounted
// `shared_ptr`s, and a publish clones only the pages containing
// vertices the maintainer actually changed, sharing every other page
// with the previous epoch. Publication is O(|dirty| + cloned pages +
// n/page_size directory entries); a reader pinning an epoch gets
// wait-free O(1) `core(v)` against immutable storage.
//
// Concurrency contract: `publish` / `rebuild` are called by ONE writer
// at a time (the engine holds its flush mutex); `CoreView`s are
// immutable once returned and may be read from any number of threads
// with no synchronisation whatsoever — there is nothing to wait on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/types.h"

namespace parcore::query {

/// Immutable paged view of all core numbers at one epoch boundary.
/// Copying a view is one refcount bump; the pages themselves are shared
/// across epochs and never mutated after publication.
class CoreView {
 public:
  CoreView() = default;

  /// Wait-free point read; 0 for out-of-range vertices (matching the
  /// engine's historical EngineSnapshot::core semantics).
  CoreValue core(VertexId v) const {
    if (table_ == nullptr || v >= table_->n) return 0;
    return (*table_->pages[v >> table_->bits])[v & table_->mask];
  }

  /// Number of vertices the view covers (0 for a default-constructed,
  /// never-published view).
  std::size_t size() const { return table_ ? table_->n : 0; }

  bool empty() const { return size() == 0; }

  /// Escape hatch for legacy callers that want the flat vector: an
  /// O(n) page-by-page copy. New code should query the view directly.
  std::vector<CoreValue> materialize() const;

  /// Identity of the page holding v (nullptr when out of range).
  /// Introspection for tests and debugging: two epochs share a page
  /// iff these pointers compare equal.
  const void* page_identity(VertexId v) const {
    if (table_ == nullptr || v >= table_->n) return nullptr;
    return table_->pages[v >> table_->bits].get();
  }

  std::size_t page_size() const {
    return table_ ? (std::size_t{1} << table_->bits) : 0;
  }
  std::size_t page_count() const { return table_ ? table_->pages.size() : 0; }

 private:
  friend class VersionedCoreIndex;

  using Page = std::vector<CoreValue>;
  struct PageTable {
    std::size_t n = 0;
    std::uint32_t bits = 0;  // page size = 1 << bits
    VertexId mask = 0;       // page offset mask = (1 << bits) - 1
    std::vector<std::shared_ptr<const Page>> pages;
  };

  explicit CoreView(std::shared_ptr<const PageTable> table)
      : table_(std::move(table)) {}

  std::shared_ptr<const PageTable> table_;
};

/// The single-writer builder of CoreViews. Owned by the publishing side
/// (the streaming engine); `rebuild` makes epoch 0 from scratch,
/// `publish` derives each subsequent epoch from the previous one by
/// cloning only the dirty pages.
class VersionedCoreIndex {
 public:
  struct Options {
    /// Cores per page; rounded up to a power of two in
    /// [kMinPageSize, kMaxPageSize]. Smaller pages clone less per
    /// changed vertex but grow the per-epoch directory copy.
    std::size_t page_size = 4096;
  };

  static constexpr std::size_t kMinPageSize = 64;
  static constexpr std::size_t kMaxPageSize = std::size_t{1} << 20;

  VersionedCoreIndex() : VersionedCoreIndex(Options{}) {}
  explicit VersionedCoreIndex(Options opts);

  /// Full O(n) build over `read(v)` for v in [0, n). Resets the epoch
  /// chain: nothing is shared with previously published views.
  template <typename ReadFn>
  CoreView rebuild(std::size_t n, ReadFn&& read) {
    auto table = make_table(n);
    for (std::size_t p = 0; p < table->pages.size(); ++p) {
      auto page = std::make_shared<CoreView::Page>(page_len(*table, p));
      const VertexId base = static_cast<VertexId>(p << table->bits);
      for (std::size_t i = 0; i < page->size(); ++i)
        (*page)[i] = read(static_cast<VertexId>(base + i));
      table->pages[p] = std::move(page);
    }
    last_pages_cloned_ = table->pages.size();
    current_ = CoreView(std::move(table));
    return current_;
  }

  /// Copy-on-write publish: the returned view shares every page with
  /// the current one except those containing a vertex in `dirty`,
  /// which are cloned and re-read through `read(v)` for the dirty
  /// vertices only. Duplicate / out-of-range dirty entries are
  /// tolerated (deduplicated / ignored). Requires a prior rebuild.
  template <typename ReadFn>
  CoreView publish(std::span<const VertexId> dirty, ReadFn&& read) {
    if (dirty.empty()) {  // nothing changed: the epoch shares the view
      last_pages_cloned_ = 0;
      return current_;
    }
    const CoreView::PageTable& cur = *current_.table_;
    auto next = std::make_shared<CoreView::PageTable>();
    next->n = cur.n;
    next->bits = cur.bits;
    next->mask = cur.mask;
    next->pages = cur.pages;  // O(n / page_size) refcount bumps

    ++mark_epoch_;
    if (mutable_pages_.size() < next->pages.size())
      mutable_pages_.resize(next->pages.size());
    if (page_mark_.size() < next->pages.size())
      page_mark_.assign(next->pages.size(), 0);

    std::size_t cloned = 0;
    for (VertexId v : dirty) {
      if (v >= next->n) continue;
      const std::size_t p = v >> next->bits;
      if (page_mark_[p] != mark_epoch_) {
        page_mark_[p] = mark_epoch_;
        auto fresh = std::make_shared<CoreView::Page>(*next->pages[p]);
        mutable_pages_[p] = fresh.get();
        next->pages[p] = std::move(fresh);
        ++cloned;
      }
      (*mutable_pages_[p])[v & next->mask] = read(v);
    }
    last_pages_cloned_ = cloned;
    current_ = CoreView(std::move(next));
    return current_;
  }

  /// The most recently built view (empty before the first rebuild).
  const CoreView& current() const { return current_; }

  /// Pages cloned (rebuild: built) by the most recent publish/rebuild.
  std::size_t last_pages_cloned() const { return last_pages_cloned_; }

  std::size_t page_size() const { return std::size_t{1} << bits_; }

 private:
  std::shared_ptr<CoreView::PageTable> make_table(std::size_t n) const;
  static std::size_t page_len(const CoreView::PageTable& t, std::size_t p) {
    const std::size_t begin = p << t.bits;
    const std::size_t cap = std::size_t{1} << t.bits;
    return std::min(cap, t.n - begin);
  }

  std::uint32_t bits_ = 12;
  CoreView current_;
  std::size_t last_pages_cloned_ = 0;

  // Per-publish scratch: epoch-marked dirty-page dedup (no O(pages)
  // clear per publish) and the writable aliases of this publish's
  // cloned pages.
  std::vector<std::uint64_t> page_mark_;
  std::vector<CoreView::Page*> mutable_pages_;
  std::uint64_t mark_epoch_ = 0;
};

}  // namespace parcore::query
