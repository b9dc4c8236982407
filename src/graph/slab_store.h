// Arena-backed slab allocator for adjacency storage (DESIGN.md §8).
//
// Adjacency arrays are carved from large memory chunks as power-of-two
// "slabs" (size classes 8, 16, 32, ... VertexId entries). Freed slabs
// are recycled through per-shard, per-class intrusive free lists, so a
// steady-state update stream allocates no new memory at all: an edge
// removal's in-place erase never frees, and an insert that grows a vertex
// returns the old slab to the free list the next grower pops from.
//
// Concurrency: allocate/deallocate are thread-safe behind one spinlock
// per shard. Callers pass a shard hint (the vertex id) so concurrent
// workers growing different vertices spread across shards instead of
// contending on one global allocator — the allocator contention that
// vector<vector> suffered under P mutating workers (ISSUE 3).
//
// Slabs larger than one chunk ("jumbo": hub vertices) get a dedicated
// block registered in the shard; on free it enters the same class free
// list and is reused, never returned to the OS before destruction.
//
// Memory is only ever released wholesale, when the store is destroyed.
// This is deliberate: a slab popped from a free list may be handed to
// another vertex while a stale reader still holds a span into it, but
// the DynamicGraph locking contract (readers hold the vertex lock)
// already forbids that, and never unmapping keeps even a buggy stale
// read from faulting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/types.h"
#include "sync/annotations.h"
#include "sync/spinlock.h"

namespace parcore {

struct SlabStoreStats {
  std::size_t reserved_bytes = 0;  // chunk + jumbo memory held
  std::size_t freelist_bytes = 0;  // recycled slabs awaiting reuse
  std::size_t chunk_count = 0;
  std::size_t jumbo_count = 0;
};

class SlabStore {
 public:
  struct Options {
    // Chunk ceiling balances bump-allocation batching against tail
    // waste: every shard's last chunk is partially unused, so the
    // worst-case slack is shards * chunk_bytes regardless of graph
    // size. 256 KB keeps that under ~2 MB while a billion-edge arena
    // still needs only tens of thousands of chunks.
    std::size_t chunk_bytes = 1u << 18;
    std::size_t shards = 8;  // free-list shards
  };

  /// First chunk of a shard (when chunk_bytes allows); chunk sizes then
  /// grow 4x up to chunk_bytes, so a small graph doesn't pay
  /// shards * chunk_bytes of footprint floor while a large one still
  /// ends up with a handful of big chunks.
  static constexpr std::size_t kInitialChunkBytes = 4096;

  /// Smallest slab: 8 entries (32 bytes), the first out-of-line step
  /// after the 4-entry inline header.
  static constexpr std::size_t kMinSlabEntries = 8;
  static constexpr std::size_t kMaxClasses = 32;

  SlabStore();  // default Options
  explicit SlabStore(Options opts);

  SlabStore(const SlabStore&) = delete;
  SlabStore& operator=(const SlabStore&) = delete;
  SlabStore(SlabStore&&) noexcept = default;
  SlabStore& operator=(SlabStore&&) noexcept = default;

  /// Smallest class whose slab holds at least `min_entries` entries.
  static std::size_t size_class(std::size_t min_entries);
  static constexpr std::size_t class_entries(std::size_t cls) {
    return kMinSlabEntries << cls;
  }
  static constexpr std::size_t class_bytes(std::size_t cls) {
    return class_entries(cls) * sizeof(VertexId);
  }

  /// Returns an uninitialised slab of class_entries(cls) entries.
  /// Thread-safe; `shard_hint` (typically the vertex id) selects the
  /// free-list shard.
  VertexId* allocate(std::size_t cls, std::size_t shard_hint);

  /// Recycles a slab previously returned by allocate() for `cls`.
  void deallocate(VertexId* slab, std::size_t cls, std::size_t shard_hint);

  SlabStoreStats stats() const;
  const Options& options() const { return opts_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // alignas(64): shards are indexed by thread; without the padding,
  // neighbouring shards share a cache line and every bump-pointer
  // update ping-pongs the line between allocating threads.
  struct alignas(64) Shard {
    mutable Spinlock lock;
    // chunks + jumbos
    std::vector<std::unique_ptr<std::byte[]>> blocks PARCORE_GUARDED_BY(lock);
    // next free byte of the current chunk
    std::byte* bump PARCORE_GUARDED_BY(lock) = nullptr;
    // bytes remaining in the current chunk
    std::size_t bump_left PARCORE_GUARDED_BY(lock) = 0;
    // geometric schedule (0 = unset)
    std::size_t next_chunk_bytes PARCORE_GUARDED_BY(lock) = 0;
    FreeNode* free_lists[kMaxClasses] PARCORE_GUARDED_BY(lock) = {};
    std::size_t reserved_bytes PARCORE_GUARDED_BY(lock) = 0;
    std::size_t freelist_bytes PARCORE_GUARDED_BY(lock) = 0;
    std::size_t chunk_count PARCORE_GUARDED_BY(lock) = 0;
    std::size_t jumbo_count PARCORE_GUARDED_BY(lock) = 0;
  };

  Options opts_;
  std::size_t max_chunk_class_ = 0;  // largest class carved from chunks
  std::size_t num_shards_ = 1;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace parcore
