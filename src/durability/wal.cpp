#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "durability/inject.h"
#include "io/checksum.h"
#include "io/io_error.h"

namespace parcore::durability {

using io::crc32;
using io::IoError;

namespace {

// A frame larger than this cannot have been written by us (it would be
// a multi-hundred-million-edge flush); treat it as corruption instead
// of letting a flipped length bit drive a giant allocation.
constexpr std::uint32_t kMaxFrameLen = 1u << 30;

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  out.push_back(static_cast<unsigned char>(v));
  out.push_back(static_cast<unsigned char>(v >> 8));
  out.push_back(static_cast<unsigned char>(v >> 16));
  out.push_back(static_cast<unsigned char>(v >> 24));
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::string at_offset(std::uint64_t off) {
  return " at offset " + std::to_string(off);
}

// write(2) the whole buffer, resuming on short writes / EINTR. A real
// crash can still leave a prefix on disk — exactly the torn tail the
// reader tolerates.
void write_all(int fd, const std::string& path, const unsigned char* data,
               std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ::ssize_t w = ::write(fd, data + done, len - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError(path, 0,
                    std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(w);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0)
    throw IoError(path, 0,
                  std::string("fsync failed: ") + std::strerror(errno));
}

IoError injected(const std::string& path, const char* what, int err) {
  return IoError(path, 0, std::string(what) + " failed: " +
                              std::strerror(err) + " (injected)");
}

void encode_header(std::vector<unsigned char>& out, std::uint64_t base_epoch) {
  out.clear();
  out.insert(out.end(), {'P', 'W', 'A', 'L'});
  put_u32(out, kWalVersion);
  put_u64(out, base_epoch);
  out.insert(out.end(), 12, 0u);  // reserved
  put_u32(out, crc32(out.data(), out.size()));
}

void encode_frame(std::vector<unsigned char>& out, const WalRecord& rec) {
  out.clear();
  const std::size_t pairs = rec.removes.size() + rec.inserts.size();
  const std::size_t len = 16 + 8 * pairs;
  put_u32(out, static_cast<std::uint32_t>(len));
  put_u32(out, 0);  // crc backpatched below
  put_u64(out, rec.epoch);
  put_u32(out, static_cast<std::uint32_t>(rec.removes.size()));
  put_u32(out, static_cast<std::uint32_t>(rec.inserts.size()));
  for (const Edge& e : rec.removes) {
    put_u32(out, e.u);
    put_u32(out, e.v);
  }
  for (const Edge& e : rec.inserts) {
    put_u32(out, e.u);
    put_u32(out, e.v);
  }
  const std::uint32_t crc = crc32(out.data() + 8, len);
  out[4] = static_cast<unsigned char>(crc);
  out[5] = static_cast<unsigned char>(crc >> 8);
  out[6] = static_cast<unsigned char>(crc >> 16);
  out[7] = static_cast<unsigned char>(crc >> 24);
}

}  // namespace

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    sync_ = other.sync_;
    path_ = std::move(other.path_);
    frames_ = other.frames_;
    bytes_ = other.bytes_;
    fsyncs_ = other.fsyncs_;
    truncate_repairs_ = other.truncate_repairs_;
    buf_ = std::move(other.buf_);
  }
  return *this;
}

WalWriter WalWriter::create(const std::string& path, std::uint64_t base_epoch,
                            bool sync) {
  if (const int err = inject("wal-create"))
    throw injected(path, "create WAL", err);
  WalWriter w;
  w.fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (w.fd_ < 0)
    throw IoError(path, 0,
                  std::string("cannot create WAL: ") + std::strerror(errno));
  w.sync_ = sync;
  w.path_ = path;
  encode_header(w.buf_, base_epoch);
  write_all(w.fd_, path, w.buf_.data(), w.buf_.size());
  w.bytes_ += w.buf_.size();
  if (sync) {
    fsync_or_throw(w.fd_, path);
    ++w.fsyncs_;
  }
  return w;
}

void WalWriter::append(const WalRecord& rec) {
  if (fd_ < 0) throw IoError(path_, 0, "WAL writer is closed");
  const std::size_t pairs = rec.removes.size() + rec.inserts.size();
  if (pairs > (kMaxFrameLen - 16) / 8)
    throw IoError(path_, 0, "WAL record too large");
  encode_frame(buf_, rec);
  // bytes_ only advances on fully committed frames, so it IS the last
  // committed frame boundary — the offset the error path truncates
  // back to. (The header is counted into bytes_ at create.)
  const std::uint64_t committed = bytes_;
  try {
    if (armed("wal-mid-append")) {
      // Stage the torn-tail artifact a real crash would leave: only the
      // first half of the frame reaches the file before the process
      // dies in the inject() below.
      write_all(fd_, path_, buf_.data(), buf_.size() / 2);
    }
    inject("wal-mid-append");
    if (const int err = inject("wal-append"))
      throw injected(path_, "write WAL frame", err);
    if (armed("wal-append-short")) {
      // Unlike wal-append this leaves a REAL interior torn frame, which
      // the catch below must truncate away for the file to stay
      // replayable after a retried append.
      write_all(fd_, path_, buf_.data(), buf_.size() / 2);
      const int err = inject("wal-append-short");
      throw injected(path_, "write WAL frame (short)",
                     err != 0 ? err : EIO);
    }
    write_all(fd_, path_, buf_.data(), buf_.size());
    inject("wal-pre-fsync");
    if (sync_) {
      if (const int err = inject("wal-fsync"))
        throw injected(path_, "fsync WAL", err);
      fsync_or_throw(fd_, path_);
      ++fsyncs_;
    }
    inject("wal-post-fsync");
  } catch (...) {
    // Roll the file back to the last committed frame boundary so a
    // retry (or a later successful append) cannot stack a fresh frame
    // on top of a torn one. If the rollback itself fails the file's
    // tail state is unknown — close the writer so every later append
    // fails fast and the engine degrades to memory-only.
    if (::ftruncate(fd_, static_cast<off_t>(committed)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(committed), SEEK_SET) < 0) {
      ::close(fd_);
      fd_ = -1;
    } else {
      ++truncate_repairs_;
    }
    throw;
  }
  frames_ += 1;
  bytes_ += buf_.size();
}

void WalWriter::sync() {
  if (fd_ < 0) return;
  fsync_or_throw(fd_, path_);
  ++fsyncs_;
}

void WalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WalReadResult read_wal(const std::string& path) {
  struct File {
    std::FILE* f = nullptr;
    ~File() {
      if (f) std::fclose(f);
    }
  } file;
  file.f = std::fopen(path.c_str(), "rb");
  if (file.f == nullptr)
    throw IoError(path, 0,
                  std::string("cannot open WAL: ") + std::strerror(errno));

  WalReadResult out;
  unsigned char header[kWalHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof header, file.f);
  if (got != sizeof header)
    throw IoError(path, 0, "truncated WAL header (" + std::to_string(got) +
                               " of 32 bytes)" + at_offset(0));
  if (std::memcmp(header, "PWAL", 4) != 0)
    throw IoError(path, 0, "bad WAL magic" + at_offset(0));
  const std::uint32_t version = get_u32(header + 4);
  if (version != kWalVersion)
    throw IoError(path, 0,
                  "unsupported WAL version " + std::to_string(version) +
                      at_offset(4));
  if (crc32(header, 28) != get_u32(header + 28))
    throw IoError(path, 0, "WAL header CRC mismatch" + at_offset(28));
  out.base_epoch = get_u64(header + 8);

  std::uint64_t off = kWalHeaderBytes;
  std::uint64_t prev_epoch = out.base_epoch;
  std::vector<unsigned char> buf;
  for (;;) {
    unsigned char pre[8];
    const std::size_t pre_got = std::fread(pre, 1, sizeof pre, file.f);
    if (pre_got == 0) break;  // clean end
    if (pre_got < sizeof pre) {
      out.torn_tail = true;
      out.torn_offset = off;
      break;
    }
    const std::uint32_t len = get_u32(pre);
    const std::uint32_t crc = get_u32(pre + 4);
    if (len < 16 || len > kMaxFrameLen || (len - 16) % 8 != 0)
      throw IoError(path, 0,
                    "impossible WAL frame length " + std::to_string(len) +
                        at_offset(off));
    buf.resize(len);
    const std::size_t body_got = std::fread(buf.data(), 1, len, file.f);
    if (body_got < len) {
      // Physically short final frame: the torn tail a crash mid-append
      // leaves. Anything before it is intact.
      out.torn_tail = true;
      out.torn_offset = off;
      break;
    }
    if (crc32(buf.data(), len) != crc)
      throw IoError(path, 0, "WAL frame CRC mismatch" + at_offset(off));
    WalRecord rec;
    rec.epoch = get_u64(buf.data());
    const std::uint32_t nr = get_u32(buf.data() + 8);
    const std::uint32_t ni = get_u32(buf.data() + 12);
    if (16 + 8ull * (static_cast<std::uint64_t>(nr) + ni) != len)
      throw IoError(path, 0,
                    "WAL frame counts disagree with length" + at_offset(off));
    if (rec.epoch <= prev_epoch)
      throw IoError(path, 0,
                    "WAL epoch " + std::to_string(rec.epoch) +
                        " not after " + std::to_string(prev_epoch) +
                        at_offset(off));
    prev_epoch = rec.epoch;
    const unsigned char* p = buf.data() + 16;
    rec.removes.reserve(nr);
    for (std::uint32_t i = 0; i < nr; ++i, p += 8)
      rec.removes.push_back(Edge{get_u32(p), get_u32(p + 4)});
    rec.inserts.reserve(ni);
    for (std::uint32_t i = 0; i < ni; ++i, p += 8)
      rec.inserts.push_back(Edge{get_u32(p), get_u32(p + 4)});
    out.records.push_back(std::move(rec));
    off += 8 + len;
  }
  return out;
}

}  // namespace parcore::durability
