// Turns a drained stream of raw interleaved updates into the two
// disjoint batches ParallelOrderMaintainer requires.
//
// Per canonical edge, the drain order serialises all racing updates and
// the LAST operation decides the edge's desired final state; everything
// before it is redundant. Opposing redundant ops annihilate in pairs
// (insert+remove of the same edge), same-kind redundant ops are
// duplicates. The surviving op is emitted only if it actually changes
// membership against the current graph — a remove of an absent edge or
// an insert of a present one is a no-op the maintainer never sees.
//
// Emitted guarantees (the maintainer's §4 preconditions):
//   - each edge appears at most once across BOTH output batches, so the
//     insert and remove batches are disjoint;
//   - every emitted insert is absent from `g`, every emitted remove is
//     present in `g` (valid while only the flushing thread mutates g).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/dynamic_graph.h"
#include "support/types.h"

namespace parcore::engine {

/// Exact accounting: every raw update falls in exactly one bucket, so
///   raw == rejected + 2*annihilated_pairs + duplicates + noops
///          + |inserts| + |removes|.
struct CoalesceStats {
  std::size_t raw = 0;                // updates examined
  std::size_t annihilated_pairs = 0;  // opposing insert/remove pairs
  std::size_t duplicates = 0;         // redundant resubmissions
  std::size_t noops = 0;              // winners that matched g already
  std::size_t rejected = 0;           // self-loops, out-of-range vertices

  CoalesceStats& operator+=(const CoalesceStats& o) {
    raw += o.raw;
    annihilated_pairs += o.annihilated_pairs;
    duplicates += o.duplicates;
    noops += o.noops;
    rejected += o.rejected;
    return *this;
  }
};

struct CoalescedBatch {
  std::vector<Edge> inserts;
  std::vector<Edge> removes;
  CoalesceStats stats;
};

/// Coalesces `updates` (in drain order) against the current membership
/// of `g`. Read-only on `g`; the caller must guarantee no concurrent
/// mutation of `g` until the batch has been applied. Both batches keep
/// the first-seen order of their edges in `updates`.
CoalescedBatch coalesce(std::span<const GraphUpdate> updates,
                        const DynamicGraph& g);

}  // namespace parcore::engine
