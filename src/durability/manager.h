// Checkpoint + WAL lifecycle for the streaming engine
// (docs/DURABILITY.md). One manager owns one durability directory:
//
//   dir/checkpoint-<epoch>.pcg   v2 .pcg image (graph + core + k-order)
//   dir/wal-<epoch>.log          ops applied AFTER that checkpoint
//
// The pair with the highest epoch is the live generation; older
// generations are retained as fallbacks (Options::retain) and
// garbage-collected after each successful checkpoint.
//
// Checkpoint protocol (all at flush quiescent points, under the
// engine's flush lock):
//   1. write dir/checkpoint-<e>.pcg.tmp, fsync          [checkpoint-mid-write]
//   2. create dir/wal-<e>.log with its header, fsync    [checkpoint-pre-rename]
//   3. rename .tmp -> checkpoint-<e>.pcg, fsync dir     [checkpoint-post-rename]
//   4. retention: delete generations older than the newest `retain`
//
// The rename is the commit point. A crash before it leaves the previous
// generation intact (the orphan wal-<e>.log has no matching checkpoint
// and is ignored by recovery); a crash after it recovers from the new
// checkpoint with an empty WAL. Bracketed names are the crash-injection
// points (durability/crash.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "io/pcg.h"
#include "obs/metrics.h"

namespace parcore::durability {

/// dir/checkpoint-<epoch>.pcg
std::string checkpoint_path(const std::string& dir, std::uint64_t epoch);
/// dir/wal-<epoch>.log
std::string wal_path(const std::string& dir, std::uint64_t epoch);

/// Epochs of every checkpoint-<epoch>.pcg in `dir` (in-progress .tmp
/// files excluded), sorted ascending. Missing directory -> empty.
std::vector<std::uint64_t> list_checkpoint_epochs(const std::string& dir);

class Manager {
 public:
  struct Options {
    /// Durability directory; created if missing. Empty = disabled (the
    /// engine never constructs a Manager then).
    std::string dir;
    /// Flushes between periodic checkpoints; 0 = only the initial and
    /// shutdown checkpoints.
    std::size_t checkpoint_interval = 64;
    /// fsync checkpoints on write and the WAL after every append.
    /// Turning this off keeps crash-consistency of the FILE FORMAT
    /// (torn tails still recover) but an OS crash may lose the most
    /// recent flushes; a process crash loses nothing either way.
    bool fsync = true;
    /// Checkpoint generations kept (>= 1): the live one plus fallbacks.
    std::size_t retain = 2;
    /// Fault-tolerance policy, consumed by the ENGINE's durable-I/O
    /// wrapper (docs/ROBUSTNESS.md), carried here so one Options struct
    /// configures the whole durability surface.
    /// Retries per failed WAL/checkpoint operation before the engine
    /// degrades to memory-only mode.
    int max_retries = 3;
    /// Base backoff between retries; doubles per attempt.
    double retry_backoff_ms = 1.0;
    /// While degraded, attempt to re-arm durability (fresh full
    /// checkpoint) at most every this many ms; 0 disables re-arming.
    double rearm_interval_ms = 5000.0;
  };

  /// Validates options and creates the directory.
  /// Refuses (IoError) a directory that already contains checkpoints:
  /// starting a fresh engine there would interleave two histories and
  /// stale higher-epoch generations would shadow the new run's.
  explicit Manager(Options opts);

  /// Writes the generation for `ck.epoch` via the protocol above and
  /// rotates the WAL to it. Called for the initial checkpoint (engine
  /// construction), on the periodic cadence, at stop(), and by the
  /// engine's re-arm path after degradation. Throws IoError on
  /// failure; when the failure happens before the rename commit the
  /// new generation's tmp/WAL files are removed and the manager stays
  /// usable on the previous generation (the engine's retry/degrade
  /// wrapper decides what happens next).
  void checkpoint(const io::PcgCheckpoint& ck);

  /// Appends one flush's coalesced ops to the live WAL and counts the
  /// flush toward the checkpoint cadence. Empty records still count as
  /// a flush but are not written.
  void log_flush(const WalRecord& rec);

  /// True when the periodic cadence has elapsed since the last
  /// checkpoint (and at least one flush was logged).
  bool checkpoint_due() const {
    return opts_.checkpoint_interval > 0 && dirty() &&
           flushes_since_checkpoint_ >= opts_.checkpoint_interval;
  }

  /// True when WAL frames were appended after the last checkpoint —
  /// stop() takes a final checkpoint iff this holds.
  bool dirty() const { return frames_since_checkpoint_ > 0; }

  std::uint64_t last_checkpoint_epoch() const {
    return last_checkpoint_epoch_;
  }

  /// Cumulative totals for EngineStats (monotonic, manager lifetime).
  struct Totals {
    std::uint64_t checkpoints = 0;
    std::uint64_t wal_frames = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t wal_fsyncs = 0;
    /// Failed appends rolled back to the last committed frame boundary.
    std::uint64_t wal_truncate_repairs = 0;
    /// Wall time of each committed checkpoint, microseconds.
    obs::Histogram checkpoint_us;
  };
  const Totals& totals() const { return totals_; }

  const Options& options() const { return opts_; }

 private:
  void remove_generation(std::uint64_t epoch);

  Options opts_;
  WalWriter wal_;
  std::uint64_t last_checkpoint_epoch_ = 0;
  std::size_t flushes_since_checkpoint_ = 0;
  std::uint64_t frames_since_checkpoint_ = 0;
  Totals totals_;
};

}  // namespace parcore::durability
