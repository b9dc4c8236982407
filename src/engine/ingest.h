// Sharded multi-producer ingest buffer for raw graph updates.
//
// Producers append to one of S spinlock-guarded shards; the single
// consumer (the engine's scheduler thread) drains all shards at flush
// time. Sharding keeps producers from serialising on one lock; each
// producer thread is pinned to a shard chosen from its thread id, so
// the updates of ONE producer stay FIFO within a shard. Cross-producer
// interleaving is arbitrary — exactly the guarantee a concurrent
// submit API can give, and all the coalescer needs (it serialises
// racing updates to the same edge in drain order).
//
// Admission control (docs/ROBUSTNESS.md): an optional cap bounds the
// buffered count, with three overload policies for pushes that arrive
// at the cap. The at-cap probe is the size fetch_add itself (which
// serializes), so kShed holds the cap exactly; kBlock re-inserts after
// its wait without re-probing and can overshoot by at most one update
// per concurrent producer; kDegrade admits at the cap by design. A
// bounded overshoot is all an OOM guard needs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/types.h"
#include "sync/annotations.h"
#include "sync/notify.h"
#include "sync/spinlock.h"

namespace parcore::engine {

/// What happens to a push that finds the buffer at its cap.
enum class OverloadPolicy {
  /// Producer backpressure: block (bounded waits on a drain-notified
  /// channel) until occupancy drops below the cap or close() is called.
  kBlock,
  /// Load shedding: reject the NEWEST update (this one); the caller
  /// sees accepted == false and can retry, back off, or drop.
  kShed,
  /// Accept, but first force-coalesce the producer's own shard
  /// (per-edge last-op-wins, survivor order preserved) to shed the
  /// OLDEST redundant ops. Bounds memory on duplicate-heavy streams;
  /// an all-distinct stream degrades to unbounded admission.
  kDegrade,
};

/// Outcome of one push.
struct PushResult {
  /// Buffered count just before this push (threshold-crossing
  /// detection). For a shed push: the occupancy that caused the shed.
  std::size_t prev = 0;
  /// False iff the update was rejected (kShed at cap).
  bool accepted = true;
  /// Wall time this push spent blocked (kBlock at cap).
  std::uint64_t blocked_us = 0;
};

class IngestQueue {
 public:
  struct Options {
    /// Rounded up to a power of two.
    std::size_t shards = 16;
    /// Max buffered updates; 0 = unbounded (no admission checks).
    std::size_t cap = 0;
    OverloadPolicy policy = OverloadPolicy::kBlock;
    /// Non-null: notified once per push that finds the queue at its
    /// cap, BEFORE the policy acts — the engine points this at its
    /// scheduler so the drain a blocking producer is about to wait on
    /// is already on its way. Slow-path only: the uncapped/uncontended
    /// push never touches it (the <=2% admission-overhead gate is why
    /// this lives here and not as an extra check in submit()).
    Notifier* overflow = nullptr;
  };

  explicit IngestQueue(Options opts);
  /// Unbounded queue with `shards` shards (legacy shape).
  explicit IngestQueue(std::size_t shards = 16)
      : IngestQueue(Options{shards, 0, OverloadPolicy::kBlock}) {}

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Appends one update; callable concurrently from any thread. With a
  /// cap configured, applies the overload policy first (may block,
  /// reject, or compact — see PushResult). kBlock requires a live
  /// consumer calling drain(), else blocked producers only return once
  /// close() is called.
  PushResult push(const GraphUpdate& u);

  /// Moves every buffered update into `out` (appending) and empties the
  /// shards. Single-consumer: callers must serialise drains themselves.
  /// Returns the number of updates drained. Wakes blocked producers.
  std::size_t drain(std::vector<GraphUpdate>& out);

  /// Releases blocked producers and disables the cap (shutdown path:
  /// stragglers must not deadlock against a scheduler that already
  /// stopped draining). Idempotent; open() re-arms after a restart.
  void close();
  void open();
  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  /// Buffered update count. Exact with quiescent producers, otherwise a
  /// lower bound that lags pushes by at most the in-flight ones — good
  /// enough for flush-threshold checks.
  std::size_t approx_size() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Cumulative admission outcomes (relaxed reads; maintained only on
  /// the overload slow paths, so an uncontended push stays as cheap as
  /// the unbounded queue's).
  struct AdmissionStats {
    std::uint64_t shed = 0;        // pushes rejected (kShed)
    std::uint64_t block_waits = 0; // pushes that had to block (kBlock)
    std::uint64_t blocked_us = 0;  // total producer wall time blocked
    std::uint64_t compacted = 0;   // ops removed by kDegrade compaction
  };
  AdmissionStats admission() const {
    return AdmissionStats{shed_.load(std::memory_order_relaxed),
                          block_waits_.load(std::memory_order_relaxed),
                          blocked_us_.load(std::memory_order_relaxed),
                          compacted_.load(std::memory_order_relaxed)};
  }

 private:
  // One cache line per shard header so producers on different shards
  // never ping-pong a line (the vectors' heap blocks are disjoint).
  struct alignas(64) Shard {
    Spinlock lock;
    std::vector<GraphUpdate> buf PARCORE_GUARDED_BY(lock);
    // kDegrade amortization: survivors of the last compaction. The next
    // compaction is skipped until the shard has roughly doubled past
    // this floor, so an all-distinct stream pays O(1) amortized per
    // push instead of O(size) — at the price of at most 2x floor + O(1)
    // extra occupancy per shard.
    std::size_t compact_floor PARCORE_GUARDED_BY(lock) = 0;
  };

  Shard& shard_for_this_thread();
  /// Overload slow path, entered lock-free: push() already retracted
  /// the speculative insert (kShed/kBlock) or left it admitted
  /// (kDegrade) under the same lock hold that inserted it — that one
  /// hold is what makes shed exact: a drain can never deliver an update
  /// whose push reported accepted == false. r.prev carries the
  /// fetch_add probe that tripped the cap.
  PushResult push_at_cap(Shard& s, const GraphUpdate& u, PushResult r);
  /// Per-edge last-op-wins over one shard, survivors keeping their
  /// relative order. Returns ops removed; adjusts size_.
  std::size_t compact_shard(Shard& s);

  std::vector<Shard> shards_;
  std::size_t mask_ = 0;
  std::size_t cap_ = 0;
  OverloadPolicy policy_ = OverloadPolicy::kBlock;
  Notifier* overflow_ = nullptr;
  std::atomic<std::size_t> size_{0};
  std::atomic<bool> closed_{false};
  Notifier drained_;  // kBlock producers wait here; drain()/close() wake

  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> block_waits_{0};
  std::atomic<std::uint64_t> blocked_us_{0};
  std::atomic<std::uint64_t> compacted_{0};
};

}  // namespace parcore::engine
