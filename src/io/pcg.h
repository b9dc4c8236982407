// The `.pcg` binary graph cache (DESIGN.md §7, format spec in
// docs/FORMATS.md): a parsed-once image of a text dataset so large
// graphs skip tokenising on every run. Fixed little-endian layout —
// magic "PCG1", a versioned header, u32 endpoint pairs, then u64
// timestamps when present. Loading validates magic, version, declared
// counts against the actual byte length, and endpoint bounds, throwing
// IoError rather than trusting a truncated or corrupt cache.
//
// Version 2 is the durability checkpoint extension (docs/DURABILITY.md):
// the same 40-byte header followed by self-describing CRC-protected
// sections — EDGE (the graph), CORE (per-vertex core numbers), ORDR
// (the global k-order permutation) and META (checkpoint epoch). A v2
// file read through load_pcg() degrades gracefully to its graph image,
// so every dataset-driven command accepts a checkpoint as input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/graph_reader.h"
#include "support/types.h"

namespace parcore::io {

inline constexpr char kPcgMagic[4] = {'P', 'C', 'G', '1'};
inline constexpr std::uint32_t kPcgVersion = 1;
inline constexpr std::uint32_t kPcgCheckpointVersion = 2;

/// Writes `data` as a `.pcg` cache; throws IoError on write failure.
/// Only the edge image is cached: original_ids and read stats are not
/// stored (ids in a cache are already compacted).
void save_pcg(const std::string& path, const GraphData& data);

/// Loads a `.pcg` cache (v1 or v2); throws IoError on malformed input.
/// A v2 checkpoint loads as its EDGE section (core/order are dropped).
GraphData load_pcg(const std::string& path);

/// A format-v2 checkpoint image: the quiescent graph plus the serialized
/// core index and OM order the maintainer needs to restore without
/// re-running bz_decompose. `order` is the global k-order — the
/// concatenation of the per-level order lists, ascending by level, so
/// core values along it are non-decreasing.
struct PcgCheckpoint {
  std::uint64_t epoch = 0;
  std::uint64_t num_vertices = 0;
  std::vector<Edge> edges;      // canonical u < v pairs
  std::vector<CoreValue> core;  // one per vertex
  std::vector<VertexId> order;  // permutation of [0, num_vertices)
};

/// Writes a v2 checkpoint and fsyncs it before close (the durability
/// layer's atomic-rename protocol requires the payload durable before
/// the rename commits it). Throws IoError.
void save_pcg_checkpoint(const std::string& path, const PcgCheckpoint& ck);

/// Loads a v2 checkpoint, CRC-checking every section. Fails closed with
/// an IoError naming the file and byte offset on any truncation, CRC
/// mismatch, bad magic/version, unknown section or trailing bytes —
/// recovery then falls back to an older checkpoint rather than trusting
/// a damaged one.
PcgCheckpoint load_pcg_checkpoint(const std::string& path);

}  // namespace parcore::io
