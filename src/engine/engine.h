// The streaming update engine: a continuously running service core
// wrapped around ParallelOrderMaintainer.
//
// Three layers (DESIGN.md §6):
//   1. ingest   — any number of producer threads submit interleaved
//                 insert/remove updates into a sharded buffer
//                 (engine/ingest.h); submission never blocks on graph
//                 maintenance.
//   2. schedule — one background scheduler thread drains the buffer
//                 when it crosses a size threshold or a staleness
//                 deadline, coalesces the drain (engine/coalesce.h)
//                 into the disjoint batches the maintainer requires,
//                 and applies them on a ThreadTeam. An adaptive policy
//                 steers the size threshold toward a target flush
//                 latency.
//   3. query    — readers get epoch snapshots: an immutable paged
//                 CoreView (query/versioned_cores.h) published after
//                 each flush. Publication is copy-on-write — only the
//                 pages holding vertices the maintainer changed are
//                 cloned, so publishing costs O(|V*| + dirty pages),
//                 not O(n). Queries never wait on graph maintenance
//                 (only on a spinlock held for a pointer copy) and
//                 always see a state that existed at some epoch
//                 boundary — never a half-applied batch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <functional>

#include "durability/manager.h"
#include "engine/coalesce.h"
#include "engine/ingest.h"
#include "graph/dynamic_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_order.h"
#include "query/versioned_cores.h"
#include "support/timer.h"
#include "support/types.h"
#include "sync/annotations.h"
#include "sync/mutex.h"
#include "sync/notify.h"
#include "sync/spinlock.h"
#include "sync/thread_team.h"

namespace parcore::engine {

/// Immutable view of the maintained state at one epoch boundary.
/// Epoch 0 is the initial decomposition; epoch e > 0 is after e flushes.
/// Core numbers live in `view`, a paged copy-on-write index: epochs
/// share every page the flush did not touch, so holding many snapshots
/// costs memory proportional to what actually changed between them.
struct EngineSnapshot {
  std::uint64_t epoch = 0;
  /// Wait-free O(1) core(v) reads; immutable for this snapshot's
  /// lifetime. The ported core_query overloads (decomp/core_query.h)
  /// run directly against it.
  query::CoreView view;
  CoreValue max_core = 0;
  std::size_t num_edges = 0;
  /// Deep copy of the graph at this epoch; null unless
  /// Options::snapshot_graph is set. The copy compacts into a fresh
  /// arena (a linear slab fill, not n per-vertex allocations), taken at
  /// flush quiescence, so readers get a fully consistent structure.
  std::shared_ptr<const DynamicGraph> graph;

  CoreValue core(VertexId v) const { return view.core(v); }
  std::size_t num_vertices() const { return view.size(); }
  bool in_kcore(VertexId v, CoreValue k) const { return core(v) >= k; }

  /// Legacy escape hatch: the flat core vector, copied O(n) from the
  /// pages. New code should query `view` directly.
  std::vector<CoreValue> materialize() const { return view.materialize(); }

  /// All vertices with core >= k (the k-core's vertex set).
  std::vector<VertexId> kcore_members(CoreValue k) const;
};

/// Outcome of one submit(), surfaced so callers can react to admission
/// control (docs/ROBUSTNESS.md): with the kShed policy at cap the
/// update was NOT enqueued and `accepted` is false — retry, back off,
/// or drop. With kBlock, `blocked_us` is the backpressure wait this
/// submit absorbed. Existing callers that ignore the result keep the
/// pre-admission behaviour (block policy default).
struct SubmitResult {
  bool accepted = true;
  std::uint64_t blocked_us = 0;
};

/// Cumulative counters since engine construction. `flush_us`,
/// `publish_us` and `batch_sizes` are power-of-two histograms; their
/// p50/p99 are bucket upper bounds (obs::Histogram::quantile_upper).
/// These are the engine's only counts: its metric export
/// (StreamingEngine::metric_rows) renders them.
///
/// Epoch/stats consistency: `epochs` is the epoch of the snapshot the
/// stats describe, and a flush updates stats BEFORE swapping the new
/// snapshot in. A reader that grabs `snapshot()` and then `stats()` is
/// therefore guaranteed `stats().epochs >= snapshot()->epoch` — stats
/// can run ahead of the snapshot it saw, never behind it.
struct EngineStats {
  std::uint64_t epochs = 0;  // epoch described by these stats
  std::uint64_t submitted = 0;
  std::uint64_t applied_inserts = 0;
  std::uint64_t applied_removes = 0;
  std::uint64_t skipped = 0;  // maintainer-reported (should stay 0: the
                              // coalescer pre-filters no-ops)
  std::uint64_t om_compactions = 0;        // quiescent compact_all() runs
  std::uint64_t om_groups_reclaimed = 0;   // OM groups freed by them
  /// Batch edges set aside because another worker held an endpoint
  /// (summed FlushSpan::deferred_edges).
  std::uint64_t deferred_edges = 0;
  /// Adjacency entries read by the maintainer's scans, and the scans
  /// that repartitioned their list first (summed FlushSpan fields).
  std::uint64_t adjacency_entries_scanned = 0;
  std::uint64_t adjacency_repartitions = 0;
  /// Per-phase wall time summed over every flush, microseconds. The
  /// eight phases partition each flush window (obs/trace.h FlushSpan),
  /// so their sums track `flush_us`'s total up to per-flush rounding.
  /// wal_us / checkpoint_us stay 0 unless durability is enabled.
  struct PhaseTotals {
    std::uint64_t drain_us = 0;
    std::uint64_t coalesce_us = 0;
    std::uint64_t wal_us = 0;
    std::uint64_t apply_us = 0;
    std::uint64_t om_compact_us = 0;
    std::uint64_t publish_us = 0;
    std::uint64_t checkpoint_us = 0;
    /// Self-healing rebuilds (stays 0 unless the re-verifier found a
    /// mismatch and the next flush re-decomposed from scratch).
    std::uint64_t repair_us = 0;
    /// Worker attribution of the apply dispatches (trace.h semantics).
    std::uint64_t worker_busy_us = 0;
    std::uint64_t worker_idle_us = 0;
  };
  PhaseTotals phases;
  /// Durability accounting (checkpoints written, WAL frames/bytes/
  /// fsyncs); all zero unless Options::durability.dir is set.
  durability::Manager::Totals durability;
  CoalesceStats coalesce;
  /// Copy-on-write snapshot publication: pages cloned per publish, one
  /// sample per epoch (epoch 0's full build counts all pages; `.sum` is
  /// the total across epochs), and per-epoch publish wall time.
  /// publish_us is the number the paged index keeps O(|V*|): it must
  /// track batch size, not n.
  obs::Histogram publish_pages_cloned;
  /// Constructor wall time, microseconds: initial decomposition +
  /// epoch-0 publish (+ initial checkpoint when durability is on). One
  /// sample, exported as the histogram `parcore_engine_init_us`.
  obs::Histogram engine_init_us;
  /// Background re-verifier accounting (Options::reverify_interval_ms):
  /// full off-thread recomputes completed, and vertices whose live
  /// CoreView core disagreed with the recompute (must stay 0 — any
  /// mismatch is a maintenance bug caught in production), plus the
  /// wall time of each recompute, microseconds.
  std::uint64_t verify_runs = 0;
  std::uint64_t verify_mismatches = 0;
  obs::Histogram verify_us;
  /// Self-healing (docs/ROBUSTNESS.md): full state rebuilds triggered
  /// by re-verifier mismatches, and whether queries are currently
  /// quarantined to the last verified snapshot while a repair is
  /// pending.
  std::uint64_t repairs = 0;
  bool quarantined = false;
  /// Admission control (Options::ingest_cap); all zero when unbounded.
  IngestQueue::AdmissionStats admission;
  /// Flush-lag overload detector: whether the engine currently
  /// considers itself overloaded (backlog after a flush still >= the
  /// flush threshold; cleared below half), and how many flushes ended
  /// in that state.
  bool overloaded = false;
  std::uint64_t overload_flushes = 0;
  /// Durable-I/O fault tolerance: retried WAL/checkpoint operations
  /// that eventually succeeded, degradations to memory-only mode,
  /// successful re-arms, and the current degraded flag (true = WAL and
  /// checkpoints are disarmed; recovery is possible only up to the
  /// last durable generation).
  std::uint64_t durability_retries = 0;
  std::uint64_t durability_rearms = 0;
  bool durability_degraded = false;
  std::uint64_t durability_degraded_epoch = 0;
  obs::Histogram publish_us;   // per-epoch publish time, µs
  obs::Histogram flush_us;     // per-flush wall time, µs
  obs::Histogram batch_sizes;  // raw updates per flush
};

class StreamingEngine {
 public:
  struct Options {
    std::size_t flush_threshold = 8192;  // buffered updates per flush
    double flush_interval_ms = 10.0;  // max staleness of buffered updates
    int workers = 4;                  // maintainer workers per flush
    /// Admission control (docs/ROBUSTNESS.md): bound the ingest buffer
    /// at this many updates (0 = unbounded) and resolve at-cap submits
    /// with `overload`. The effective flush threshold is clamped to the
    /// cap so a full buffer always triggers a flush. The cap is a soft
    /// bound: racing producers can overshoot by at most one update
    /// each. (PARCORE_ENGINE_INGEST_CAP / PARCORE_ENGINE_OVERLOAD.)
    std::size_t ingest_cap = 0;
    OverloadPolicy overload = OverloadPolicy::kBlock;
    /// Adaptive batch policy: scale flush_threshold so that a flush
    /// takes about target_flush_ms, clamped to [min,max]_threshold and,
    /// when ingest_cap is set, to the cap (which wins over both).
    bool adaptive = false;
    double target_flush_ms = 20.0;
    std::size_t min_threshold = 256;
    std::size_t max_threshold = 1u << 20;
    /// Every N flushes, reclaim quarantined OM groups at quiescence
    /// (OrderList::compact over all levels). 0 disables compaction —
    /// quarantined groups then leak for the engine's lifetime.
    std::size_t om_compact_interval = 64;
    /// Publish a deep graph copy with every epoch snapshot (compact
    /// arena copy; costs one arena fill per flush).
    bool snapshot_graph = false;
    /// Cores per copy-on-write snapshot page (rounded to a power of
    /// two in [64, 1M]). Smaller pages clone fewer bytes per changed
    /// vertex; larger pages shrink the per-epoch directory copy.
    std::size_t snapshot_page = 4096;
    /// Invoked under the flush lock with each completed flush's span —
    /// the --trace-out JSONL sink. Keep it cheap; it runs on the
    /// scheduler thread inside the flush window.
    std::function<void(const obs::FlushSpan&)> span_sink;
    /// > 0 spawns a background re-verifier alongside the scheduler:
    /// every interval it copies the graph at a flush boundary, runs a
    /// full parallel exact decomposition off-thread (own ThreadTeam —
    /// never contends with flush dispatch) and compares against the
    /// live CoreView of the same epoch, counting runs/mismatches/
    /// timing in EngineStats (exported as parcore_verify_*). 0
    /// disables it. (`serve --reverify MS` / PARCORE_SERVE_REVERIFY_MS.)
    double reverify_interval_ms = 0.0;
    /// Durability (docs/DURABILITY.md): a non-empty `durability.dir`
    /// enables epoch checkpointing + the op WAL. The constructor writes
    /// the initial checkpoint (epoch 0), every flush appends its
    /// coalesced ops to the WAL before applying them, a checkpoint is
    /// taken every `durability.checkpoint_interval` flushes at the
    /// flush quiescent point, and stop() takes a final checkpoint when
    /// frames were logged since the last one. The directory must not
    /// already contain checkpoints (the constructor throws io::IoError:
    /// a stale higher-epoch generation would shadow this run's).
    durability::Manager::Options durability{};
    ParallelOrderMaintainer::Options maintainer{};
  };

  /// Takes over `g` for its lifetime: after construction the graph must
  /// only be mutated through the engine. `g` and `team` must outlive it.
  /// The constructor runs the initial decomposition and publishes
  /// epoch 0; call start() to spawn the scheduler thread.
  StreamingEngine(DynamicGraph& g, ThreadTeam& team, Options opts);
  StreamingEngine(DynamicGraph& g, ThreadTeam& team)
      : StreamingEngine(g, team, Options()) {}
  ~StreamingEngine();

  StreamingEngine(const StreamingEngine&) = delete;
  StreamingEngine& operator=(const StreamingEngine&) = delete;

  /// Spawns the background scheduler. No-op if already running;
  /// start/stop may cycle (stop then start spawns a fresh scheduler).
  void start();

  /// Drains and applies everything still buffered, then joins the
  /// scheduler. Producers must have stopped submitting. Idempotent;
  /// also run by the destructor.
  void stop();

  // ----------------------------------------------------------- ingest
  /// Thread-safe; callable from any producer thread. Non-blocking
  /// (beyond a shard spinlock) unless Options::ingest_cap is set with
  /// the kBlock policy, in which case an at-cap submit waits for a
  /// drain (SubmitResult::blocked_us). With kShed the update can be
  /// rejected — check SubmitResult::accepted. Out-of-range endpoints
  /// are accepted here and rejected (counted) at coalesce time.
  SubmitResult submit(const GraphUpdate& u);
  SubmitResult submit_insert(VertexId u, VertexId v) {
    return submit(GraphUpdate{Edge{u, v}, UpdateKind::kInsert});
  }
  SubmitResult submit_remove(VertexId u, VertexId v) {
    return submit(GraphUpdate{Edge{u, v}, UpdateKind::kRemove});
  }

  /// Synchronously drains + applies on the calling thread (the same
  /// path the scheduler takes; serialised with it). Returns the epoch
  /// published by this flush. Useful for tests and single-threaded use
  /// without start().
  std::uint64_t flush_now();

  // ------------------------------------------------------------ query
  /// The latest published snapshot; never null. O(1): hands out a
  /// reference to the shared immutable state.
  std::shared_ptr<const EngineSnapshot> snapshot() const;

  /// Convenience point reads against the latest snapshot.
  CoreValue core(VertexId v) const { return snapshot()->core(v); }
  std::uint64_t epoch() const { return snapshot()->epoch; }

  EngineStats stats() const;

  /// This engine's metrics for the exporters (obs/export.h): one
  /// stats() read, the current flush threshold and this engine's
  /// graph arena (DynamicGraph::arena_stats), under the names and
  /// kinds of docs/OBSERVABILITY.md. Every exported row comes from
  /// here.
  obs::Rows metric_rows() const;

  /// Ring of the most recent flush spans (per-phase timings, worker
  /// attribution); see obs/trace.h. Always recorded, obs gate or not.
  const obs::FlushTrace& trace() const { return trace_; }

  /// Current adaptive threshold (== Options::flush_threshold when the
  /// adaptive policy is off).
  std::size_t current_flush_threshold() const {
    return threshold_.load(std::memory_order_relaxed);
  }

  DynamicGraph& graph() { return graph_; }
  ParallelOrderMaintainer& maintainer() { return maintainer_; }

  /// One synchronous re-verification pass on the calling thread — the
  /// exact body the background re-verifier runs per interval: copy the
  /// graph at a flush boundary, recompute the full decomposition, diff
  /// against the live CoreView; on mismatch quarantine queries to the
  /// last verified snapshot and request a repair at the next flush.
  /// Returns the mismatch count (0 = clean). Works without start().
  std::size_t run_reverify_once();

  /// True while queries are pinned to the last verified snapshot
  /// because a mismatch was detected and the repair has not run yet.
  bool quarantined() const {
    return quarantined_.load(std::memory_order_relaxed);
  }

  /// TEST ONLY: overwrite the maintained core values of `vertices`
  /// (adding `delta` to each) in both the maintainer state and the
  /// published snapshot, simulating the silent state corruption the
  /// re-verifier + repair path exists to catch. Takes the flush lock.
  void corrupt_cores_for_test(const std::vector<VertexId>& vertices,
                              CoreValue delta);

 private:
  void scheduler_loop();
  void reverifier_loop();
  std::uint64_t flush_locked() PARCORE_REQUIRES(flush_mu_);
  /// Runs `op` (a durability call) with bounded retry/backoff; on
  /// persistent io::IoError degrades the engine to memory-only mode
  /// instead of letting the error escape the flush path. Returns false
  /// iff degraded.
  bool durable_io(const std::function<void()>& op, const char* what)
      PARCORE_REQUIRES(flush_mu_);
  /// Re-arm attempt: while degraded, periodically try a full fresh
  /// checkpoint; success resumes WAL logging.
  void try_rearm_durability(std::uint64_t epoch) PARCORE_REQUIRES(flush_mu_);
  /// Wraps an already-published view into the snapshot for `epoch`,
  /// adding max core / edge count / the optional graph copy. Does NOT
  /// swap it in — the caller updates stats first, then swaps, so
  /// readers never see an epoch whose stats lag it.
  std::shared_ptr<EngineSnapshot> build_snapshot(std::uint64_t epoch,
                                                 query::CoreView view)
      PARCORE_REQUIRES(flush_mu_);
  void adapt_threshold(double flush_ms, std::size_t raw);
  /// Full durable image of the current state (the graph walk and
  /// save_order need the quiescence the flush lock provides).
  io::PcgCheckpoint make_checkpoint(std::uint64_t epoch)
      PARCORE_REQUIRES(flush_mu_);

  DynamicGraph& graph_;
  Options opts_;
  // Declared before maintainer_ so construction order starts the clock
  // before the initial decomposition — engine_init_us measures the
  // whole cold start, which is exactly what the parallel init path is
  // supposed to shrink.
  WallTimer init_timer_;
  ParallelOrderMaintainer maintainer_;
  IngestQueue queue_;
  Notifier notifier_;
  // Checkpoint/WAL lifecycle; null unless Options::durability.dir is
  // set. Touched only under flush_mu_ (WAL appends and checkpoints are
  // part of the flush window by design).
  std::unique_ptr<durability::Manager> durability_ PARCORE_GUARDED_BY(flush_mu_);

  std::thread scheduler_;
  std::thread reverifier_;
  Notifier reverify_notifier_;
  bool running_ = false;

  // Serialises flushes (scheduler vs flush_now) — the maintainer runs
  // one batch at a time by contract.
  Mutex flush_mu_;
  std::atomic<std::size_t> threshold_;
  std::size_t flushes_since_compact_ PARCORE_GUARDED_BY(flush_mu_) = 0;

  // Paged COW snapshot publication state; single-writer under
  // flush_mu_ (the constructor runs before any reader exists).
  query::VersionedCoreIndex index_ PARCORE_GUARDED_BY(flush_mu_);
  // Per-flush changed-vertex union.
  std::vector<VertexId> dirty_ PARCORE_GUARDED_BY(flush_mu_);
  std::uint64_t published_epoch_ PARCORE_GUARDED_BY(flush_mu_) = 0;

  // Snapshot publication: writers swap the pointer under snap_mu_,
  // readers copy the shared_ptr under the same spinlock (held for the
  // refcount bump only). While quarantined_, snapshot() serves
  // verified_snap_ (the newest snapshot a re-verify pass confirmed)
  // instead of snap_.
  mutable Spinlock snap_mu_;
  std::shared_ptr<const EngineSnapshot> snap_ PARCORE_GUARDED_BY(snap_mu_);
  std::shared_ptr<const EngineSnapshot> verified_snap_
      PARCORE_GUARDED_BY(snap_mu_);

  // Self-healing state (docs/ROBUSTNESS.md): the re-verifier sets both
  // flags on mismatch; the next flush performs the rebuild, clears
  // them, and re-verifies the snapshot it publishes.
  std::atomic<bool> quarantined_{false};
  std::atomic<bool> repair_requested_{false};

  // Durable-I/O fault tolerance (guarded by flush_mu_, like
  // durability_ itself). While degraded the Manager stays alive but
  // unused; try_rearm_durability() attempts a fresh full checkpoint on
  // the rearm_interval_ms cadence.
  bool durability_degraded_ PARCORE_GUARDED_BY(flush_mu_) = false;
  std::uint64_t degraded_epoch_ PARCORE_GUARDED_BY(flush_mu_) = 0;
  std::chrono::steady_clock::time_point last_rearm_attempt_
      PARCORE_GUARDED_BY(flush_mu_){};

  // Overload detector state (scheduler/flush thread only).
  bool overloaded_ PARCORE_GUARDED_BY(flush_mu_) = false;

  // Stats: counters written only by the flushing thread under
  // flush_mu_, read under stats_mu_ by stats().
  mutable Mutex stats_mu_;
  EngineStats stats_ PARCORE_GUARDED_BY(stats_mu_);
  std::atomic<std::uint64_t> submitted_{0};

  // The per-flush span ring (obs/trace.h).
  obs::FlushTrace trace_;
};

/// `base` with every flush-policy knob overridable from the environment
/// (PARCORE_ENGINE_* variables; full table in docs/CONFIG.md). Used by
/// parcore_cli and the examples so deployments tune the engine without
/// a rebuild.
StreamingEngine::Options options_from_env(
    StreamingEngine::Options base = StreamingEngine::Options());

}  // namespace parcore::engine
