#include "graph/slab_store.h"

#include <algorithm>
#include <bit>

namespace parcore {

SlabStore::SlabStore() : SlabStore(Options()) {}

SlabStore::SlabStore(Options opts) : opts_(opts) {
  // Every slab must fit its chunk; clamp tiny test chunks up to one
  // minimum slab so the carving loop always makes progress.
  if (opts_.chunk_bytes < class_bytes(0)) opts_.chunk_bytes = class_bytes(0);
  if (opts_.shards == 0) opts_.shards = 1;
  max_chunk_class_ = 0;
  while (max_chunk_class_ + 1 < kMaxClasses &&
         class_bytes(max_chunk_class_ + 1) <= opts_.chunk_bytes)
    ++max_chunk_class_;
  num_shards_ = opts_.shards;
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

std::size_t SlabStore::size_class(std::size_t min_entries) {
  if (min_entries <= kMinSlabEntries) return 0;
  const std::size_t rounded = std::bit_ceil(min_entries);
  return static_cast<std::size_t>(
      std::countr_zero(rounded / kMinSlabEntries));
}

VertexId* SlabStore::allocate(std::size_t cls, std::size_t shard_hint) {
  const std::size_t bytes = class_bytes(cls);
  Shard& s = shards_[shard_hint % num_shards_];
  SpinGuard g(s.lock);
  if (FreeNode* node = s.free_lists[cls]) {
    s.free_lists[cls] = node->next;
    s.freelist_bytes -= bytes;
    return reinterpret_cast<VertexId*>(node);
  }
  if (cls <= max_chunk_class_) {
    if (s.bump_left < bytes) {
      // The chunk remainder is abandoned (counted as reserved slack).
      // Chunks grow geometrically toward the chunk_bytes ceiling;
      // every slab here is <= chunk_bytes so the fresh chunk always
      // fits it.
      std::size_t size =
          s.next_chunk_bytes != 0
              ? s.next_chunk_bytes
              : std::min(opts_.chunk_bytes, kInitialChunkBytes);
      if (size < bytes) size = bytes;
      s.next_chunk_bytes = std::min(size * 4, opts_.chunk_bytes);
      auto chunk = std::make_unique<std::byte[]>(size);
      s.bump = chunk.get();
      s.bump_left = size;
      s.blocks.push_back(std::move(chunk));
      s.reserved_bytes += size;
      ++s.chunk_count;
    }
    std::byte* out = s.bump;
    s.bump += bytes;
    s.bump_left -= bytes;
    return reinterpret_cast<VertexId*>(out);
  }
  auto jumbo = std::make_unique<std::byte[]>(bytes);
  std::byte* out = jumbo.get();
  s.blocks.push_back(std::move(jumbo));
  s.reserved_bytes += bytes;
  ++s.jumbo_count;
  return reinterpret_cast<VertexId*>(out);
}

void SlabStore::deallocate(VertexId* slab, std::size_t cls,
                           std::size_t shard_hint) {
  // Slabs are >= 32 bytes and 8-byte aligned (all class sizes are
  // multiples of 32 carved from max_align chunks), so the intrusive
  // free-list node fits in place.
  auto* node = reinterpret_cast<FreeNode*>(slab);
  Shard& s = shards_[shard_hint % num_shards_];
  SpinGuard g(s.lock);
  node->next = s.free_lists[cls];
  s.free_lists[cls] = node;
  s.freelist_bytes += class_bytes(cls);
}

SlabStoreStats SlabStore::stats() const {
  SlabStoreStats out;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    const Shard& s = shards_[i];
    SpinGuard g(s.lock);
    out.reserved_bytes += s.reserved_bytes;
    out.freelist_bytes += s.freelist_bytes;
    out.chunk_count += s.chunk_count;
    out.jumbo_count += s.jumbo_count;
  }
  return out;
}

}  // namespace parcore
