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
#include <cstdint>
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

/// One distinct edge's recorded updates (LastOpTable).
struct EdgeRun {
  std::uint64_t key = 0;      // edge_key of the edge
  std::uint32_t first = 0;    // index of its first recorded update
  std::uint32_t last = 0;     // index of its latest recorded update
  std::uint32_t inserts = 0;  // recorded updates of each kind
  std::uint32_t removes = 0;
};

/// The one last-op-wins table, shared by coalesce() and the ingest
/// queue's kDegrade compaction. Groups updates by canonical edge in
/// power-of-two slots holding run indices, probed linearly. Sized once
/// for `max_edges` distinct edges at load <= 1/2, so it never grows and
/// allocates nothing per edge. Indices must fit in 32 bits.
class LastOpTable {
 public:
  explicit LastOpTable(std::size_t max_edges);

  /// Records update `u` found at index `i` of its span.
  void add(const GraphUpdate& u, std::uint32_t i);

  /// One run per distinct edge, in first-recorded order.
  const std::vector<EdgeRun>& runs() const { return runs_; }

 private:
  std::vector<std::uint32_t> slots_;  // run index + 1; 0 = empty
  std::vector<EdgeRun> runs_;
  int shift_ = 0;  // 64 - log2(slots)
};

/// Coalesces `updates` (in drain order) against the current membership
/// of `g`. Read-only on `g`; the caller must guarantee no concurrent
/// mutation of `g` until the batch has been applied. Both batches keep
/// the first-seen order of their edges in `updates`.
CoalescedBatch coalesce(std::span<const GraphUpdate> updates,
                        const DynamicGraph& g);

}  // namespace parcore::engine
