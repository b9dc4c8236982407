#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "decomp/core_query.h"
#include "decomp/parallel_peel.h"
#include "io/io_error.h"
#include "support/timer.h"

namespace parcore::engine {

std::vector<VertexId> EngineSnapshot::kcore_members(CoreValue k) const {
  return k_core_members(view, k);
}

StreamingEngine::StreamingEngine(DynamicGraph& g, ThreadTeam& team,
                                 Options opts)
    : graph_(g),
      opts_(opts),
      maintainer_(g, team, opts.maintainer),
      // &notifier_ outlives queue_ (both members, queue_ declared
      // first); the queue only stores the pointer here.
      queue_(IngestQueue::Options{.cap = opts.ingest_cap,
                                  .policy = opts.overload,
                                  .overflow = &notifier_}),
      // A cap below the flush threshold would leave a full buffer that
      // never crosses the threshold: clamp so at-cap always flushes.
      threshold_(std::max<std::size_t>(
          1, opts.ingest_cap > 0
                 ? std::min(opts.flush_threshold, opts.ingest_cap)
                 : opts.flush_threshold)) {
  // Epoch 0: the initial decomposition, the index's one full O(n)
  // build. Every later epoch is a COW delta on top of it.
  query::CoreView view = index_.rebuild(
      graph_.num_vertices(), [this](VertexId v) { return maintainer_.core(v); });
  stats_.publish_pages_cloned.record(index_.last_pages_cloned());
  auto snap = build_snapshot(0, std::move(view));
  {
    SpinGuard g(snap_mu_);
    snap_ = std::move(snap);
  }

  // Durability: the initial checkpoint IS epoch 0 — recovery always has
  // a base image, and the first WAL generation opens beside it. The
  // Manager constructor still throws on CONFIG errors (non-empty
  // checkpoint directory); only the I/O of the checkpoint itself goes
  // through the retry/degrade wrapper, so a full disk at startup gives
  // a serving (memory-only) engine, not a dead one.
  if (!opts_.durability.dir.empty()) {
    durability_ = std::make_unique<durability::Manager>(opts_.durability);
    durable_io([&] { durability_->checkpoint(make_checkpoint(0)); },
               "initial checkpoint");
    MutexGuard lk(stats_mu_);
    stats_.durability = durability_->totals();
  }

  // Cold-start cost, end to end: initial decomposition (BZ) through
  // epoch-0 publish and the initial checkpoint. init_timer_ is declared
  // before maintainer_ precisely so this covers the decomposition.
  stats_.engine_init_us.record(init_timer_.elapsed_us());
}

StreamingEngine::~StreamingEngine() { stop(); }

void StreamingEngine::start() {
  if (running_) return;
  notifier_.reset();  // clear a previous stop(): start/stop can cycle
  reverify_notifier_.reset();
  queue_.open();  // re-arm the admission cap after a previous stop()
  running_ = true;
  scheduler_ = std::thread([this] { scheduler_loop(); });
  if (opts_.reverify_interval_ms > 0.0)
    reverifier_ = std::thread([this] { reverifier_loop(); });
}

void StreamingEngine::stop() {
  // Release any producer still blocked on the admission cap BEFORE
  // joining the scheduler: once draining stops, a blocked producer
  // would otherwise wait forever. (Producers are contractually done by
  // now, but a straggler must deadlock-proof into a plain accept.)
  queue_.close();
  if (running_) {
    notifier_.request_stop();
    reverify_notifier_.request_stop();
    scheduler_.join();
    if (reverifier_.joinable()) reverifier_.join();
    running_ = false;
  }
  // Final drain on the caller's thread: catches updates submitted after
  // the scheduler observed the stop request, serves engines that were
  // never start()ed, and runs a still-pending repair.
  if (queue_.approx_size() > 0 ||
      repair_requested_.load(std::memory_order_relaxed))
    flush_now();
  // Shutdown checkpoint: anything logged since the last periodic one
  // becomes part of a fresh generation, so a clean stop never needs WAL
  // replay on the next recover. Skipped while degraded — the whole
  // point of memory-only mode is that durable I/O stopped working;
  // stats().durability_degraded reports it.
  MutexGuard lk(flush_mu_);
  if (durability_ && !durability_degraded_ && durability_->dirty()) {
    durable_io(
        [&] { durability_->checkpoint(make_checkpoint(published_epoch_)); },
        "shutdown checkpoint");
    MutexGuard lk2(stats_mu_);
    stats_.durability = durability_->totals();
  }
}

SubmitResult StreamingEngine::submit(const GraphUpdate& u) {
  // At-cap handling lives inside the queue (its overflow notifier
  // points at the scheduler), so this path is identical for capped and
  // uncapped engines.
  const PushResult pushed = queue_.push(u);
  if (!pushed.accepted) return SubmitResult{false, 0};
  const std::size_t prev = pushed.prev;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Wake the scheduler only on the threshold CROSSING, not on every
  // push above it — otherwise all producers serialise on the notifier
  // mutex for the whole duration of a flush. Backlog that accumulates
  // while a flush is running re-crosses after the drain (the counter
  // restarts near zero), and the interval timeout covers the rest.
  const std::size_t threshold = threshold_.load(std::memory_order_relaxed);
  if (prev < threshold && prev + 1 >= threshold) notifier_.notify();
  return SubmitResult{true, pushed.blocked_us};
}

void StreamingEngine::scheduler_loop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      opts_.flush_interval_ms);
  for (;;) {
    notifier_.wait_for(interval);
    const bool stopping = notifier_.stop_requested();
    // A pending repair flushes even an empty buffer: the rebuild runs
    // at the next quiescent point whether or not producers are active.
    if (queue_.approx_size() > 0 ||
        repair_requested_.load(std::memory_order_relaxed)) {
      MutexGuard lk(flush_mu_);
      flush_locked();
    }
    if (stopping) return;
  }
}

void StreamingEngine::reverifier_loop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(opts_.reverify_interval_ms);
  for (;;) {
    reverify_notifier_.wait_for(interval);
    if (reverify_notifier_.stop_requested()) return;
    run_reverify_once();
  }
}

std::size_t StreamingEngine::run_reverify_once() {
  // Private team: ThreadTeam::run is single-dispatcher, and the flush
  // path owns the engine's team — the re-verifier must never contend
  // for it (that would stall flushes for the length of a full
  // decomposition, the opposite of "background").
  const int workers = std::max(1, opts_.workers);
  ThreadTeam team(workers);

  // A consistent (graph, snapshot) pair: the graph only mutates under
  // flush_mu_ and every flush publishes before releasing it, so a
  // copy taken under the lock matches the latest snapshot exactly.
  // Deliberately reads snap_, not snapshot(): the verifier must judge
  // the LIVE state even while queries are quarantined to an older one.
  std::unique_ptr<DynamicGraph> copy;
  std::shared_ptr<const EngineSnapshot> at;
  {
    MutexGuard lk(flush_mu_);
    copy = std::make_unique<DynamicGraph>(graph_);
    SpinGuard g(snap_mu_);
    at = snap_;
  }

  WallTimer timer;
  const BulkDecomposition truth = parallel_decompose(*copy, team, workers);
  std::size_t mismatches = 0;
  const std::size_t n = std::min<std::size_t>(truth.core.size(),
                                              at->num_vertices());
  for (VertexId v = 0; v < n; ++v)
    if (at->core(v) != truth.core[v]) ++mismatches;
  const std::uint64_t us = timer.elapsed_us();

  if (mismatches == 0) {
    // Clean pass: this snapshot becomes the quarantine fallback the
    // next mismatch pins queries to.
    SpinGuard g(snap_mu_);
    verified_snap_ = at;
  } else {
    std::fprintf(stderr,
                 "[parcore verify] epoch=%llu: %zu cores diverge from "
                 "full recompute — quarantining queries to last verified "
                 "epoch, repair scheduled\n",
                 static_cast<unsigned long long>(at->epoch), mismatches);
    quarantined_.store(true, std::memory_order_relaxed);
    repair_requested_.store(true, std::memory_order_relaxed);
    // Wake the scheduler so the repair flush runs promptly even with
    // idle producers.
    notifier_.notify();
  }
  MutexGuard lk(stats_mu_);
  ++stats_.verify_runs;
  stats_.verify_mismatches += mismatches;
  stats_.verify_us.record(us);
  stats_.quarantined = quarantined_.load(std::memory_order_relaxed);
  return mismatches;
}

std::uint64_t StreamingEngine::flush_now() {
  MutexGuard lk(flush_mu_);
  return flush_locked();
}

std::uint64_t StreamingEngine::flush_locked() {
  // One cumulative clock segments the flush into the six trace phases:
  // consecutive elapsed_us() marks partition the window exactly, so the
  // span's phases sum to its flush_us up to integer rounding
  // (obs/trace.h FlushSpan).
  WallTimer timer;
  obs::FlushSpan span;

  // Self-healing: a re-verifier mismatch requested a rebuild. Run it
  // FIRST, on the quiescent pre-drain state — this flush's batch then
  // applies incrementally on top of a freshly correct base, and the
  // publish below re-clones every page so the live view sheds the
  // corruption in the same epoch.
  const bool repaired = repair_requested_.exchange(false);
  if (repaired) {
    maintainer_.rebuild();
    span.repair_us = timer.elapsed_us();
  }
  const std::uint64_t t_repair = timer.elapsed_us();

  std::vector<GraphUpdate> raw;
  queue_.drain(raw);
  const std::uint64_t t_drain = timer.elapsed_us();

  CoalescedBatch batch = coalesce(raw, graph_);
  const std::uint64_t t_coalesce = timer.elapsed_us();

  // Write-ahead: the coalesced ops are durable (group-fsync'd) BEFORE
  // any of them mutate the graph, stamped with the epoch this flush
  // will publish. Recovery replays exactly these batches in exactly
  // this order (removes first). The append goes through the
  // retry/degrade wrapper: an injected or real I/O error never escapes
  // the flush path — after max_retries the engine disarms durability
  // and keeps serving from memory.
  if (durability_ && !durability_degraded_) {
    durability::WalRecord rec;
    rec.epoch = published_epoch_ + 1;
    rec.removes = batch.removes;
    rec.inserts = batch.inserts;
    durable_io([&] { durability_->log_flush(rec); }, "wal append");
  }
  const std::uint64_t t_wal = timer.elapsed_us();

  BatchResult ins, rem;
  // Worker attribution, accumulated across the (up to two) maintainer
  // calls of this flush: busy straight from the workers' own clocks,
  // idle as the dispatch wall each worker sat through minus its busy
  // share (clamped: the two clock sets can disagree by microseconds).
  auto absorb_timing = [&] {
    const ParallelOrderMaintainer::BatchTiming& t = maintainer_.last_timing();
    span.worker_busy_us += t.busy_us;
    const std::uint64_t wall =
        static_cast<std::uint64_t>(t.workers) * t.dispatch_us;
    span.worker_idle_us += wall > t.busy_us ? wall - t.busy_us : 0;
    span.deferred_edges += t.deferred;
    span.adjacency_scanned += t.scanned;
    span.adjacency_repartitions += t.repartitions;
    span.workers = std::max(span.workers, static_cast<std::uint32_t>(
                                              std::max(t.workers, 0)));
  };
  // Disjoint by construction, so the two sequential maintainer calls
  // are exactly the paper's non-overlapping batch protocol. Removes run
  // first so a flush never makes the graph transiently denser than its
  // final state. `dirty_` accumulates the union of both batches'
  // changed-core sets — the exact page set the COW publish must clone
  // (a vertex demoted then re-promoted appears twice; the index dedups
  // pages and re-reads the final value).
  dirty_.clear();
  auto absorb_changed = [&] {
    const std::span<const VertexId> changed = maintainer_.last_changed();
    dirty_.insert(dirty_.end(), changed.begin(), changed.end());
  };
  if (!batch.removes.empty()) {
    rem = maintainer_.remove_batch(batch.removes, opts_.workers);
    absorb_timing();
    absorb_changed();
  }
  if (!batch.inserts.empty()) {
    ins = maintainer_.insert_batch(batch.inserts, opts_.workers);
    absorb_timing();
    absorb_changed();
  }
  const std::uint64_t t_apply = timer.elapsed_us();

  // Quiescent point: the batch is fully applied and no worker holds OM
  // pointers, so quarantined order-list groups can be reclaimed.
  std::size_t om_reclaimed = 0;
  bool om_compacted = false;
  if (opts_.om_compact_interval > 0 &&
      ++flushes_since_compact_ >= opts_.om_compact_interval) {
    flushes_since_compact_ = 0;
    om_reclaimed = maintainer_.state().levels().compact_all();
    om_compacted = true;
  }
  const std::uint64_t t_compact = timer.elapsed_us();

  const std::uint64_t epoch = ++published_epoch_;
  // Time the COW publish alone: publish_us is the O(|V*| + dirty pages)
  // claim under measurement. A repair invalidates every page (the
  // rebuild rewrote all cores), so it publishes via a full index
  // rebuild instead of the dirty-page delta.
  WallTimer publish_timer;
  query::CoreView view =
      repaired ? index_.rebuild(graph_.num_vertices(),
                                [this](VertexId v) {
                                  return maintainer_.core(v);
                                })
               : index_.publish(dirty_, [this](VertexId v) {
                   return maintainer_.core(v);
                 });
  const double publish_ms = publish_timer.elapsed_ms();
  auto snap = build_snapshot(epoch, std::move(view));
  const std::uint64_t t_publish = timer.elapsed_us();

  // Periodic checkpoint at the flush quiescent point: the batch is
  // fully applied, published, and no worker is running — exactly the
  // state the checkpoint must capture. Rotating the WAL here keeps the
  // invariant that wal-<e>.log holds only frames with epochs > e.
  // While degraded, this slot instead hosts the periodic re-arm
  // attempt (a fresh full checkpoint; success resumes WAL logging).
  if (durability_ && !durability_degraded_ && durability_->checkpoint_due())
    durable_io([&] { durability_->checkpoint(make_checkpoint(epoch)); },
               "periodic checkpoint");
  else if (durability_ && durability_degraded_)
    try_rearm_durability(epoch);
  const std::uint64_t t_checkpoint = timer.elapsed_us();

  const double flush_ms = timer.elapsed_ms();

  // Finalise the span: phases are consecutive deltas of the one clock.
  span.epoch = epoch;
  span.raw = raw.size();
  span.inserts = batch.inserts.size();
  span.removes = batch.removes.size();
  span.pages_cloned = index_.last_pages_cloned();
  span.drain_us = t_drain - t_repair;
  span.coalesce_us = t_coalesce - t_drain;
  span.wal_us = t_wal - t_coalesce;
  span.apply_us = t_apply - t_wal;
  span.om_compact_us = t_compact - t_apply;
  span.publish_us = t_publish - t_compact;
  span.checkpoint_us = t_checkpoint - t_publish;
  span.flush_us = static_cast<std::uint64_t>(flush_ms * 1000.0);

  // Flush-lag overload detector: a backlog that already exceeds the
  // flush threshold the moment a flush completes means producers are
  // outrunning the drain — a whole new flush is due immediately.
  // Hysteresis (clear below half the threshold) keeps the gauge from
  // flapping at the boundary.
  const std::size_t backlog = queue_.approx_size();
  const std::size_t threshold_now =
      threshold_.load(std::memory_order_relaxed);
  if (!overloaded_ && backlog >= threshold_now)
    overloaded_ = true;
  else if (overloaded_ && backlog * 2 < threshold_now)
    overloaded_ = false;
  const IngestQueue::AdmissionStats adm = queue_.admission();

  {
    MutexGuard lk(stats_mu_);
    stats_.epochs = epoch;
    stats_.applied_inserts += ins.applied;
    stats_.applied_removes += rem.applied;
    stats_.skipped += ins.skipped + rem.skipped;
    if (om_compacted) {
      ++stats_.om_compactions;
      stats_.om_groups_reclaimed += om_reclaimed;
    }
    stats_.deferred_edges += span.deferred_edges;
    stats_.adjacency_entries_scanned += span.adjacency_scanned;
    stats_.adjacency_repartitions += span.adjacency_repartitions;
    stats_.coalesce += batch.stats;
    stats_.phases.drain_us += span.drain_us;
    stats_.phases.coalesce_us += span.coalesce_us;
    stats_.phases.wal_us += span.wal_us;
    stats_.phases.apply_us += span.apply_us;
    stats_.phases.om_compact_us += span.om_compact_us;
    stats_.phases.publish_us += span.publish_us;
    stats_.phases.checkpoint_us += span.checkpoint_us;
    stats_.phases.repair_us += span.repair_us;
    stats_.phases.worker_busy_us += span.worker_busy_us;
    stats_.phases.worker_idle_us += span.worker_idle_us;
    if (repaired) ++stats_.repairs;
    stats_.quarantined =
        repaired ? false : quarantined_.load(std::memory_order_relaxed);
    stats_.admission = adm;
    stats_.overloaded = overloaded_;
    if (overloaded_) ++stats_.overload_flushes;
    if (durability_) stats_.durability = durability_->totals();
    stats_.publish_pages_cloned.record(index_.last_pages_cloned());
    stats_.publish_us.record(static_cast<std::uint64_t>(publish_ms * 1000.0));
    stats_.flush_us.record(span.flush_us);
    stats_.batch_sizes.record(raw.size());
  }
  // Swap the snapshot in only AFTER its stats are published: a reader
  // that grabs snapshot() then stats() can never observe epoch e paired
  // with stats from e-1 (the pre-ISSUE-5 snapshot/stats tear).
  {
    SpinGuard g(snap_mu_);
    // A repaired snapshot was just recomputed from scratch: it is by
    // construction verified, so it both lifts the quarantine and
    // becomes the new fallback for the next mismatch.
    if (repaired) verified_snap_ = snap;
    snap_ = std::move(snap);
  }
  if (repaired) quarantined_.store(false, std::memory_order_relaxed);
  if (opts_.adaptive) adapt_threshold(flush_ms, raw.size());

  // Observability last, off the reader-visible locks: the span ring and
  // the optional JSONL sink.
  trace_.record(span);
  if (opts_.span_sink) opts_.span_sink(span);
  return epoch;
}

bool StreamingEngine::durable_io(const std::function<void()>& op,
                                 const char* what) {
  const durability::Manager::Options& d = opts_.durability;
  const int max_retries = std::max(0, d.max_retries);
  for (int attempt = 0;; ++attempt) {
    try {
      op();
      if (attempt > 0) {
        MutexGuard lk(stats_mu_);
        stats_.durability_retries += static_cast<std::uint64_t>(attempt);
      }
      return true;
    } catch (const io::IoError& e) {
      if (attempt >= max_retries) {
        // Persistent failure: disarm durability instead of letting the
        // error terminate the serving path. The Manager object stays
        // alive (its directory may come back — ENOSPC clears, the
        // mount heals) and try_rearm_durability() probes it on a
        // timer.
        durability_degraded_ = true;
        degraded_epoch_ = published_epoch_;
        last_rearm_attempt_ = std::chrono::steady_clock::now();
        std::fprintf(stderr,
                     "[parcore durability] %s failed after %d attempts "
                     "(%s) — degrading to memory-only mode at epoch %llu\n",
                     what, attempt + 1, e.what(),
                     static_cast<unsigned long long>(published_epoch_));
        MutexGuard lk(stats_mu_);
        stats_.durability_retries += static_cast<std::uint64_t>(attempt);
        stats_.durability_degraded = true;
        stats_.durability_degraded_epoch = published_epoch_;
        return false;
      }
      // Bounded exponential backoff: transient blips (EINTR-ish
      // hiccups, a momentarily full disk) usually clear within a few
      // ms, and the flush path can afford short stalls far better than
      // losing durability.
      const double backoff_ms =
          std::max(0.0, d.retry_backoff_ms) * static_cast<double>(1 << attempt);
      if (backoff_ms > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }
}

void StreamingEngine::try_rearm_durability(std::uint64_t epoch) {
  const double interval_ms = opts_.durability.rearm_interval_ms;
  if (interval_ms <= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  const double since_ms =
      std::chrono::duration<double, std::milli>(now - last_rearm_attempt_)
          .count();
  if (since_ms < interval_ms) return;
  last_rearm_attempt_ = now;
  try {
    // A FULL checkpoint, not a WAL resume: frames were dropped while
    // degraded, so the only consistent durable state is a fresh image
    // of the current epoch (which also rotates in a fresh WAL).
    durability_->checkpoint(make_checkpoint(epoch));
  } catch (const io::IoError&) {
    return;  // still broken; next attempt after the interval
  }
  durability_degraded_ = false;
  std::fprintf(stderr,
               "[parcore durability] re-armed at epoch %llu (fresh "
               "checkpoint generation)\n",
               static_cast<unsigned long long>(epoch));
  MutexGuard lk(stats_mu_);
  ++stats_.durability_rearms;
  stats_.durability_degraded = false;
  stats_.durability = durability_->totals();
}

void StreamingEngine::corrupt_cores_for_test(
    const std::vector<VertexId>& vertices, CoreValue delta) {
  MutexGuard lk(flush_mu_);
  for (VertexId v : vertices) {
    std::atomic<CoreValue>& c = maintainer_.state().core(v);
    c.store(static_cast<CoreValue>(c.load(std::memory_order_relaxed) + delta),
            std::memory_order_relaxed);
  }
  // Republish the touched pages at the SAME epoch so the live view
  // carries the corruption too — exactly what a maintenance bug would
  // leave behind: state and view agreeing with each other and both
  // wrong versus the graph.
  query::CoreView view = index_.publish(
      vertices, [this](VertexId v) { return maintainer_.core(v); });
  auto snap = build_snapshot(published_epoch_, std::move(view));
  SpinGuard g(snap_mu_);
  snap_ = std::move(snap);
}

io::PcgCheckpoint StreamingEngine::make_checkpoint(std::uint64_t epoch) {
  io::PcgCheckpoint ck;
  ck.epoch = epoch;
  ck.num_vertices = graph_.num_vertices();
  ck.edges = graph_.edges();
  SavedCoreOrder saved = maintainer_.state().save_order();
  ck.core = std::move(saved.core);
  ck.order = std::move(saved.order);
  return ck;
}

std::shared_ptr<EngineSnapshot> StreamingEngine::build_snapshot(
    std::uint64_t epoch, query::CoreView view) {
  auto snap = std::make_shared<EngineSnapshot>();
  snap->epoch = epoch;
  snap->view = std::move(view);
  snap->max_core = maintainer_.state().max_core();
  snap->num_edges = graph_.num_edges();
  return snap;
}

void StreamingEngine::adapt_threshold(double flush_ms, std::size_t raw) {
  constexpr std::size_t kMinThreshold = 256;
  constexpr std::size_t kMaxThreshold = std::size_t{1} << 20;
  if (raw == 0 || flush_ms <= 0.0) return;
  // One multiplicative step per flush toward the latency target;
  // damped (sqrt) so a single outlier flush cannot swing the threshold
  // by more than ~2x.
  const double ratio = opts_.target_flush_ms / flush_ms;
  const double step = std::clamp(std::sqrt(ratio), 0.5, 2.0);
  // Never above the ingest cap, for the reason the constructor clamps
  // it: a full buffer must still cross the threshold and flush, and the
  // overload detector compares the backlog against it.
  const std::size_t cap = opts_.ingest_cap;
  const std::size_t hi =
      cap > 0 ? std::min(kMaxThreshold, cap) : kMaxThreshold;
  const std::size_t lo = std::min(kMinThreshold, hi);
  const auto cur = threshold_.load(std::memory_order_relaxed);
  const auto next = static_cast<std::size_t>(
      std::clamp(static_cast<double>(cur) * step, static_cast<double>(lo),
                 static_cast<double>(hi)));
  threshold_.store(next, std::memory_order_relaxed);
}

std::shared_ptr<const EngineSnapshot> StreamingEngine::snapshot() const {
  SpinGuard g(snap_mu_);
  // While quarantined, queries are pinned to the last VERIFIED epoch:
  // a snapshot known wrong must not be served while the repair flush is
  // in flight (docs/ROBUSTNESS.md). The repair publishes a fresh
  // verified snapshot and lifts the pin.
  return quarantined_.load(std::memory_order_relaxed) && verified_snap_
             ? verified_snap_
             : snap_;
}

EngineStats StreamingEngine::stats() const {
  MutexGuard lk(stats_mu_);
  EngineStats s = stats_;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  // Live rather than flush-latest: a shed/blocked producer shows up in
  // stats() immediately, not only after the next flush exports deltas.
  s.admission = queue_.admission();
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  return s;
}

obs::Rows StreamingEngine::metric_rows() const {
  const EngineStats s = stats();
  // Live: O(shards) under the arena's shard spinlocks, so a running
  // flush is fine.
  const SlabStoreStats arena = graph_.arena_stats();
  const durability::Manager::Totals& d = s.durability;
  auto flag = [](bool b) -> std::int64_t { return b ? 1 : 0; };
  obs::Rows rows;
  rows.counters = {
      {"parcore_updates_submitted_total", s.submitted},
      {"parcore_flushes_total", s.epochs},
      {"parcore_inserts_applied_total", s.applied_inserts},
      {"parcore_removes_applied_total", s.applied_removes},
      {"parcore_coalesce_annihilated_pairs_total",
       s.coalesce.annihilated_pairs},
      {"parcore_coalesce_duplicates_total", s.coalesce.duplicates},
      {"parcore_coalesce_noops_total", s.coalesce.noops},
      {"parcore_coalesce_rejected_total", s.coalesce.rejected},
      {"parcore_coalesce_us_total", s.phases.coalesce_us},
      {"parcore_snapshot_pages_cloned_total", s.publish_pages_cloned.sum},
      {"parcore_publishes_total", s.epochs - s.repairs},
      {"parcore_index_rebuilds_total", 1 + s.repairs},
      {"parcore_om_groups_reclaimed_total", s.om_groups_reclaimed},
      {"parcore_worker_busy_us_total", s.phases.worker_busy_us},
      {"parcore_worker_idle_us_total", s.phases.worker_idle_us},
      {"parcore_deferred_edges_total", s.deferred_edges},
      {"parcore_adjacency_entries_scanned_total", s.adjacency_entries_scanned},
      {"parcore_adjacency_repartitions_total", s.adjacency_repartitions},
      {"parcore_verify_runs_total", s.verify_runs},
      {"parcore_verify_mismatches_total", s.verify_mismatches},
      {"parcore_admission_shed_total", s.admission.shed},
      {"parcore_admission_blocked_us_total", s.admission.blocked_us},
      {"parcore_admission_compacted_total", s.admission.compacted},
      {"parcore_repairs_total", s.repairs},
      {"parcore_durability_retries_total", s.durability_retries},
      {"parcore_durability_rearms_total", s.durability_rearms},
      {"parcore_checkpoints_total", d.checkpoints},
      {"parcore_wal_frames_total", d.wal_frames},
      {"parcore_wal_bytes_total", d.wal_bytes},
      {"parcore_wal_fsync_total", d.wal_fsyncs},
      {"parcore_wal_truncate_repairs_total", d.wal_truncate_repairs},
  };
  rows.gauges = {
      {"parcore_epoch", static_cast<std::int64_t>(s.epochs)},
      {"parcore_flush_threshold",
       static_cast<std::int64_t>(current_flush_threshold())},
      {"parcore_overloaded", flag(s.overloaded)},
      {"parcore_quarantined", flag(s.quarantined)},
      {"parcore_durability_degraded", flag(s.durability_degraded)},
      {"parcore_arena_reserved_bytes",
       static_cast<std::int64_t>(arena.reserved_bytes)},
      {"parcore_arena_chunks",
       static_cast<std::int64_t>(arena.chunk_count + arena.jumbo_count)},
  };
  rows.histograms = {
      {"parcore_flush_us", s.flush_us},
      {"parcore_flush_batch_size", s.batch_sizes},
      {"parcore_publish_us", s.publish_us},
      {"parcore_publish_pages_cloned", s.publish_pages_cloned},
      {"parcore_engine_init_us", s.engine_init_us},
      {"parcore_verify_us", s.verify_us},
      {"parcore_checkpoint_us", d.checkpoint_us},
  };
  return rows;
}

}  // namespace parcore::engine
