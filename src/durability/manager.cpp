#include "durability/manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "durability/inject.h"
#include "io/io_error.h"

namespace parcore::durability {

namespace fs = std::filesystem;
using io::IoError;

namespace {

constexpr const char* kCheckpointPrefix = "checkpoint-";
constexpr const char* kCheckpointSuffix = ".pcg";

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0)
    throw IoError(dir, 0,
                  std::string("cannot open directory for fsync: ") +
                      std::strerror(errno));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0)
    throw IoError(dir, 0,
                  std::string("directory fsync failed: ") +
                      std::strerror(errno));
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string checkpoint_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/" + kCheckpointPrefix + std::to_string(epoch) +
         kCheckpointSuffix;
}

std::string wal_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/wal-" + std::to_string(epoch) + ".log";
}

std::vector<std::uint64_t> list_checkpoint_epochs(const std::string& dir) {
  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::size_t prefix_len = std::strlen(kCheckpointPrefix);
    const std::size_t suffix_len = std::strlen(kCheckpointSuffix);
    if (name.size() <= prefix_len + suffix_len) continue;
    if (name.compare(0, prefix_len, kCheckpointPrefix) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len,
                     kCheckpointSuffix) != 0)
      continue;
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    char* end = nullptr;
    const unsigned long long e = std::strtoull(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;
    epochs.push_back(static_cast<std::uint64_t>(e));
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Manager::Manager(Options opts) : opts_(std::move(opts)) {
  if (opts_.dir.empty())
    throw IoError("", 0, "durability directory must not be empty");
  if (opts_.retain == 0) opts_.retain = 1;
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec)
    throw IoError(opts_.dir, 0,
                  "cannot create durability directory: " + ec.message());
  if (!list_checkpoint_epochs(opts_.dir).empty())
    throw IoError(opts_.dir, 0,
                  "directory already contains checkpoints; refusing to start "
                  "a fresh engine over an existing history (use `parcore_cli "
                  "recover` or point at an empty directory)");
}

void Manager::checkpoint(const io::PcgCheckpoint& ck) {
  const std::uint64_t t0 = now_us();
  const std::string final_path = checkpoint_path(opts_.dir, ck.epoch);
  const std::string tmp_path = final_path + ".tmp";

  WalWriter next;
  bool renamed = false;
  try {
    // 1. Full image to a temp name; never visible to recovery scans.
    if (const int err = inject("checkpoint-write"))
      throw IoError(tmp_path, 0,
                    std::string("write checkpoint failed: ") +
                        std::strerror(err) + " (injected)");
    io::save_pcg_checkpoint(tmp_path, ck, opts_.fsync);
    if (armed("checkpoint-mid-write")) {
      // Stage the artifact of dying mid-write: a half-length tmp file.
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(tmp_path, ec);
      if (!ec) {
        if (::truncate(tmp_path.c_str(), static_cast<::off_t>(size / 2)) !=
            0) {
          // Staging failure must not mask the injection; die anyway.
        }
      }
    }
    inject("checkpoint-mid-write");

    // 2. The new generation's WAL, durable BEFORE the commit point so a
    // visible checkpoint always has its (possibly empty) WAL beside it.
    next = WalWriter::create(wal_path(opts_.dir, ck.epoch), ck.epoch,
                             opts_.fsync);
    totals_.wal_bytes += next.bytes_appended();
    totals_.wal_fsyncs += next.fsyncs();
    inject("checkpoint-pre-rename");

    // 3. Commit point.
    if (const int err = inject("checkpoint-rename"))
      throw IoError(final_path, 0,
                    std::string("checkpoint rename failed: ") +
                        std::strerror(err) + " (injected)");
    if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0)
      throw IoError(final_path, 0,
                    std::string("checkpoint rename failed: ") +
                        std::strerror(errno));
    renamed = true;
    if (opts_.fsync) fsync_dir(opts_.dir);
    inject("checkpoint-post-rename");
  } catch (...) {
    if (!renamed) {
      // Nothing committed: remove this generation's partial artifacts
      // so the directory stays exactly the previous generation, and
      // keep appending to the still-open previous WAL. (After a
      // successful rename the new generation is valid on disk even if
      // the directory fsync failed — leave it for recovery to pick.)
      next.close();
      std::error_code ec;
      fs::remove(tmp_path, ec);
      fs::remove(wal_path(opts_.dir, ck.epoch), ec);
    }
    throw;
  }

  wal_ = std::move(next);  // closes the previous WAL fd
  last_checkpoint_epoch_ = ck.epoch;
  flushes_since_checkpoint_ = 0;
  frames_since_checkpoint_ = 0;
  ++totals_.checkpoints;
  totals_.checkpoint_us.record(now_us() - t0);

  // 4. Retention: keep the newest `retain` generations.
  std::vector<std::uint64_t> epochs = list_checkpoint_epochs(opts_.dir);
  if (epochs.size() > opts_.retain) {
    for (std::size_t i = 0; i + opts_.retain < epochs.size(); ++i)
      remove_generation(epochs[i]);
  }
}

void Manager::log_flush(const WalRecord& rec) {
  if (!wal_.is_open())
    throw IoError(opts_.dir, 0,
                  "log_flush before the initial checkpoint opened a WAL");
  if (rec.removes.empty() && rec.inserts.empty()) {
    ++flushes_since_checkpoint_;
    return;
  }
  const std::uint64_t b0 = wal_.bytes_appended();
  const std::uint64_t f0 = wal_.fsyncs();
  const std::uint64_t tr0 = wal_.truncate_repairs();
  try {
    wal_.append(rec);
  } catch (...) {
    // The append rolled the file back (or closed the writer); surface
    // the repair in the totals, then let the engine's retry/degrade
    // wrapper handle the error. The flush is NOT counted toward the
    // checkpoint cadence so a retried append doesn't double-count it.
    totals_.wal_truncate_repairs += wal_.truncate_repairs() - tr0;
    throw;
  }
  ++flushes_since_checkpoint_;
  ++frames_since_checkpoint_;
  ++totals_.wal_frames;
  totals_.wal_bytes += wal_.bytes_appended() - b0;
  totals_.wal_fsyncs += wal_.fsyncs() - f0;
}

void Manager::remove_generation(std::uint64_t epoch) {
  std::error_code ec;
  fs::remove(checkpoint_path(opts_.dir, epoch), ec);
  fs::remove(wal_path(opts_.dir, epoch), ec);
  fs::remove(checkpoint_path(opts_.dir, epoch) + ".tmp", ec);
}

}  // namespace parcore::durability
