// Write-ahead log of applied temporal ops between checkpoints
// (docs/DURABILITY.md). One WAL file belongs to exactly one checkpoint
// generation: its 32-byte header names the checkpoint's epoch
// (`base_epoch`), and each frame carries the coalesced remove/insert
// batches of one engine flush, stamped with the epoch that flush
// published. Replaying the frames over the checkpoint image through the
// normal maintain path reproduces the engine state at the crash.
//
// Wire format (little-endian throughout):
//   header  "PWAL" | u32 version=1 | u64 base_epoch | 12 reserved zero
//           bytes | u32 crc32(first 28 bytes)                  = 32 B
//   frame   u32 len | u32 crc32(payload) | payload             = 8+len B
//   payload u64 epoch | u32 n_removes | u32 n_inserts |
//           n_removes * (u32 u, u32 v) | n_inserts * (u32 u, u32 v)
//           => len == 16 + 8 * (n_removes + n_inserts)
//
// Each frame is staged in one buffer and handed to write(2) in a
// single call, so a process crash leaves at most one PHYSICALLY SHORT
// frame at the tail — which replay tolerates (torn tail). A complete
// frame with a bad CRC, a structurally impossible length, or a
// non-monotonic epoch can only mean corruption, and replay fails
// closed with an IoError naming the file and byte offset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/types.h"

namespace parcore::durability {

inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderBytes = 32;

/// One flush's worth of coalesced ops. Removes are replayed before
/// inserts, mirroring the engine's apply order.
struct WalRecord {
  std::uint64_t epoch = 0;
  std::vector<Edge> removes;
  std::vector<Edge> inserts;
};

/// Appender over a POSIX fd. Not thread-safe: the engine appends from
/// the flush path only, which is serialised by design.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { close(); }
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }
  WalWriter& operator=(WalWriter&& other) noexcept;

  /// Creates/truncates `path`, writes the header, and fsyncs it.
  /// Throws IoError on any failure.
  static WalWriter create(const std::string& path, std::uint64_t base_epoch);

  /// Appends one frame and group-fsyncs it. Crash points: wal-mid-append (half the frame bytes are
  /// written before dying), wal-pre-fsync, wal-post-fsync. Fault
  /// points (durability/inject.h): wal-append, wal-append-short,
  /// wal-fsync.
  ///
  /// Exception safety: a frame either commits whole (counters advance,
  /// fd offset lands on the frame boundary) or not at all — on any
  /// write/fsync failure the file is ftruncate'd back to the last
  /// committed frame boundary before the IoError propagates, so a
  /// retried append cannot leave an interior torn frame. If even the
  /// truncate fails the writer closes itself; later appends throw.
  void append(const WalRecord& rec);

  void close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  std::uint64_t frames_appended() const { return frames_; }
  std::uint64_t bytes_appended() const { return bytes_; }
  std::uint64_t fsyncs() const { return fsyncs_; }
  /// Failed appends rolled back with ftruncate (partial-write repairs).
  std::uint64_t truncate_repairs() const { return truncate_repairs_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t truncate_repairs_ = 0;
  std::vector<unsigned char> buf_;  // frame staging, capacity reused
};

/// Result of scanning a WAL file front to back.
struct WalReadResult {
  std::uint64_t base_epoch = 0;
  std::vector<WalRecord> records;
  /// True when the file ended inside a frame (crash mid-append); the
  /// short frame at `torn_offset` was discarded, everything before it
  /// is intact and returned.
  bool torn_tail = false;
  std::uint64_t torn_offset = 0;
};

/// Reads and validates `path`. Tolerates exactly one physically short
/// frame at EOF (reported via torn_tail); every other defect — bad
/// magic/version, header or frame CRC mismatch, impossible frame
/// length, out-of-order epochs, trailing garbage — throws IoError
/// naming the file and byte offset. Epochs must be strictly increasing
/// and greater than base_epoch.
WalReadResult read_wal(const std::string& path);

}  // namespace parcore::durability
