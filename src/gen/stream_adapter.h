// Adapters between on-disk datasets (src/io) and the GraphUpdate
// streams the engine and maintainers consume (DESIGN.md §7). These are
// pure reshaping functions: no RNG, no I/O — given the same input they
// produce the same update sequence, which is what makes file-driven
// runs reproducible end to end.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/types.h"

namespace parcore {

/// Sliding-window replay over a (deduplicated) edge sequence: each step
/// inserts the next edge and, once more than `window` edges are live,
/// removes the oldest — the KONECT-style "most recent W edges" workload.
/// window == 0 means unbounded (inserts only).
std::vector<GraphUpdate> sliding_window_updates(std::span<const Edge> stream,
                                                std::size_t window);

/// Splits `ops` into `parts` producer streams by canonical edge key,
/// preserving each edge's op order inside one stream. Producers pinned
/// to distinct ingest shards may then race freely: ops on one edge stay
/// ordered, ops on different edges commute for final membership, so the
/// final graph is deterministic regardless of scheduling.
std::vector<std::vector<GraphUpdate>> partition_updates_by_edge(
    std::span<const GraphUpdate> ops, std::size_t parts);

}  // namespace parcore
