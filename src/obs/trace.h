// Structured per-flush spans: one record per engine flush with the
// nested phase timings (repair / drain / coalesce / wal / apply /
// om-compact / publish / checkpoint), batch composition, COW publish
// cost and worker busy/idle attribution. The engine keeps the most
// recent spans in a fixed ring (`FlushTrace`) and can additionally
// stream every span as a JSON line (`--trace-out`; schema in
// docs/OBSERVABILITY.md).
//
// The ring is deliberately simple: one spinlock held for a struct copy,
// written once per flush (ms-scale cadence) and drained by readers via
// snapshot(). It is always on — capacity bounds the footprint and the
// copy is nanoseconds next to a flush.
#pragma once

#include <cstdint>
#include <vector>

#include "sync/annotations.h"
#include "sync/spinlock.h"

namespace parcore::obs {

struct FlushSpan {
  std::uint64_t epoch = 0;

  // Batch composition.
  std::uint64_t raw = 0;       // updates drained from the ingest buffer
  std::uint64_t inserts = 0;   // coalesced insert batch size
  std::uint64_t removes = 0;   // coalesced remove batch size
  std::uint64_t pages_cloned = 0;  // COW pages cloned by the publish

  // Phase wall times, microseconds. The eight phases partition the
  // flush window: they sum to flush_us up to integer rounding (the
  // acceptance bound is 10%; see docs/OBSERVABILITY.md "trace schema").
  // wal_us and checkpoint_us stay 0 unless durability is enabled;
  // repair_us stays 0 unless this flush ran a self-healing rebuild.
  std::uint64_t repair_us = 0;     // self-healing rebuild (runs pre-drain)
  std::uint64_t drain_us = 0;
  std::uint64_t coalesce_us = 0;
  std::uint64_t wal_us = 0;        // WAL append + group fsync (durability)
  std::uint64_t apply_us = 0;      // maintainer insert/remove batches
  std::uint64_t om_compact_us = 0; // quiescent OM compaction + mem sample
  std::uint64_t publish_us = 0;    // COW publish + snapshot wrap
  std::uint64_t checkpoint_us = 0; // periodic checkpoint (durability)
  std::uint64_t flush_us = 0;      // whole flush wall time

  // Worker attribution for the apply phase, summed over this flush's
  // batch dispatches: busy is time inside the dispatch loops, idle is
  // workers * dispatch wall - busy (waiting on the team, straggler
  // tails). deferred_edges counts the batch edges a worker set aside
  // because an endpoint was locked by another (endpoint contention).
  // adjacency_scanned counts the adjacency entries the maintainer's
  // scans read and adjacency_repartitions the scans that repartitioned
  // their list first (DESIGN.md §3.1).
  std::uint32_t workers = 0;
  std::uint64_t worker_busy_us = 0;
  std::uint64_t worker_idle_us = 0;
  std::uint64_t deferred_edges = 0;
  std::uint64_t adjacency_scanned = 0;
  std::uint64_t adjacency_repartitions = 0;
};

/// Fixed-capacity ring of the most recent flush spans.
class FlushTrace {
 public:
  explicit FlushTrace(std::size_t capacity = 1024)
      : cap_(capacity == 0 ? 1 : capacity) {
    ring_.resize(cap_);
  }

  void record(const FlushSpan& span) {
    SpinGuard g(mu_);
    ring_[static_cast<std::size_t>(seq_ % cap_)] = span;
    ++seq_;
  }

  /// The retained spans, oldest first (at most capacity()).
  std::vector<FlushSpan> snapshot() const {
    std::vector<FlushSpan> out;
    // Allocate before taking the lock: growing the vector inside the
    // critical section would stall writers (the engine's flush path)
    // behind a heap allocation.
    out.reserve(cap_);
    SpinGuard g(mu_);
    const std::uint64_t kept = seq_ < cap_ ? seq_ : cap_;
    for (std::uint64_t i = seq_ - kept; i < seq_; ++i)
      out.push_back(ring_[static_cast<std::size_t>(i % cap_)]);
    return out;
  }

  std::size_t capacity() const { return cap_; }

  /// Spans recorded since construction (>= capacity() once wrapped).
  std::uint64_t recorded() const {
    SpinGuard g(mu_);
    return seq_;
  }

 private:
  mutable Spinlock mu_;
  std::vector<FlushSpan> ring_ PARCORE_GUARDED_BY(mu_);
  std::size_t cap_;
  std::uint64_t seq_ PARCORE_GUARDED_BY(mu_) = 0;
};

}  // namespace parcore::obs
