#include "io/pcg.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include <unistd.h>

#include "io/checksum.h"
#include "io/io_error.h"

namespace parcore::io {

namespace {

// Header layout (40 bytes, little-endian):
//   bytes 0-3   magic "PCG1"
//   bytes 4-7   u32 version (1 = graph cache, 2 = checkpoint)
//   bytes 8-11  u32 flags (bit 0: timestamps present; v2 writes 0)
//   bytes 12-15 u32 reserved (0)
//   bytes 16-23 u64 num_vertices
//   bytes 24-31 u64 num_edges
//   bytes 32-39 u64 reserved (0)
// v1 payload: num_edges x (u32 u, u32 v), then num_edges x u64
// timestamps when bit 0 of flags is set.
// v2 payload: self-describing sections, each framed as
//   u32 tag, u32 reserved (0), u64 payload_len, payload, u32 crc32(payload)
// with exactly one each of META (u64 epoch, u64 reserved), EDGE
// (num_edges x u32 pair), CORE (num_vertices x i32) and ORDR
// (num_vertices x u32), in any order, and nothing after the last.
constexpr std::uint32_t kFlagTimestamps = 1u;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kSectionHeaderBytes = 16;  // tag + reserved + len

constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(s[0]) |
         static_cast<std::uint32_t>(s[1]) << 8 |
         static_cast<std::uint32_t>(s[2]) << 16 |
         static_cast<std::uint32_t>(s[3]) << 24;
}
constexpr std::uint32_t kSecMeta = fourcc("META");
constexpr std::uint32_t kSecEdge = fourcc("EDGE");
constexpr std::uint32_t kSecCore = fourcc("CORE");
constexpr std::uint32_t kSecOrdr = fourcc("ORDR");

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string tag_name(std::uint32_t tag) {
  char s[5] = {static_cast<char>(tag & 0xff),
               static_cast<char>((tag >> 8) & 0xff),
               static_cast<char>((tag >> 16) & 0xff),
               static_cast<char>((tag >> 24) & 0xff), '\0'};
  for (char& c : s)
    if (c != '\0' && (c < 0x20 || c > 0x7e)) c = '?';
  return std::string(s);
}

std::string at_offset(std::uint64_t off) {
  return " at offset " + std::to_string(off);
}

void write_all(const File& f, const std::string& path, const void* data,
               std::size_t len, const char* what) {
  if (len > 0 && std::fwrite(data, 1, len, f.get()) != len)
    throw IoError(path, 0, std::string("write failed (") + what + ")");
}

/// Writes one framed v2 section: header, payload, payload CRC.
void write_section(const File& f, const std::string& path, std::uint32_t tag,
                   const void* payload, std::uint64_t len) {
  unsigned char head[kSectionHeaderBytes] = {};
  put_u32(head, tag);
  put_u64(head + 8, len);
  const std::string name = tag_name(tag);
  write_all(f, path, head, sizeof head, name.c_str());
  write_all(f, path, payload, static_cast<std::size_t>(len), name.c_str());
  unsigned char crc[4];
  put_u32(crc, crc32(payload, static_cast<std::size_t>(len)));
  write_all(f, path, crc, sizeof crc, name.c_str());
}

GraphData load_pcg_v1(const File& f, const std::string& path,
                      const unsigned char* header);
PcgCheckpoint load_pcg_v2(const File& f, const std::string& path,
                          const unsigned char* header);

}  // namespace

void save_pcg(const std::string& path, const GraphData& data) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) throw IoError(path, 0, "cannot open for writing");

  unsigned char header[kHeaderBytes] = {};
  std::memcpy(header, kPcgMagic, 4);
  put_u32(header + 4, kPcgVersion);
  put_u32(header + 8, data.has_timestamps ? kFlagTimestamps : 0);
  put_u64(header + 16, data.num_vertices);
  put_u64(header + 24, data.edges.size());
  if (std::fwrite(header, 1, kHeaderBytes, f.get()) != kHeaderBytes)
    throw IoError(path, 0, "write failed (header)");

  for (const TimestampedEdge& te : data.edges) {
    unsigned char rec[8];
    put_u32(rec, te.e.u);
    put_u32(rec + 4, te.e.v);
    if (std::fwrite(rec, 1, sizeof rec, f.get()) != sizeof rec)
      throw IoError(path, 0, "write failed (edges)");
  }
  if (data.has_timestamps) {
    for (const TimestampedEdge& te : data.edges) {
      unsigned char rec[8];
      put_u64(rec, te.time);
      if (std::fwrite(rec, 1, sizeof rec, f.get()) != sizeof rec)
        throw IoError(path, 0, "write failed (timestamps)");
    }
  }
  if (std::fflush(f.get()) != 0) throw IoError(path, 0, "flush failed");
}

GraphData load_pcg(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) throw IoError(path, 0, "cannot open for reading");

  unsigned char header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, f.get()) != kHeaderBytes)
    throw IoError(path, 0, "truncated header (not a .pcg file?)");
  if (std::memcmp(header, kPcgMagic, 4) != 0)
    throw IoError(path, 0, "bad magic (not a .pcg file)");
  const std::uint32_t version = get_u32(header + 4);
  if (version == kPcgVersion) return load_pcg_v1(f, path, header);
  if (version == kPcgCheckpointVersion) {
    // A checkpoint degrades to its graph image: every dataset-driven
    // command accepts one as input (core/order sections still CRC-check).
    PcgCheckpoint ck = load_pcg_v2(f, path, header);
    GraphData data;
    data.num_vertices = ck.num_vertices;
    data.edges.reserve(ck.edges.size());
    for (const Edge& e : ck.edges) data.edges.push_back({e, 0});
    data.stats.data_lines = data.edges.size();
    data.stats.memory_footprint_bytes =
        data.edges.capacity() * sizeof(TimestampedEdge);
    return data;
  }
  throw IoError(path, 0,
                "unsupported .pcg version " + std::to_string(version) +
                    " (this build reads versions " +
                    std::to_string(kPcgVersion) + " and " +
                    std::to_string(kPcgCheckpointVersion) + ")");
}

namespace {

GraphData load_pcg_v1(const File& f, const std::string& path,
                      const unsigned char* header) {
  const std::uint32_t flags = get_u32(header + 8);
  if ((flags & ~kFlagTimestamps) != 0)
    throw IoError(path, 0, "unknown flag bits set");

  GraphData data;
  data.num_vertices = get_u64(header + 16);
  data.has_timestamps = (flags & kFlagTimestamps) != 0;
  const std::uint64_t num_edges = get_u64(header + 24);
  if (data.num_vertices > kInvalidVertex)
    throw IoError(path, 0, "num_vertices overflows the VertexId space");

  data.edges.resize(num_edges);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    unsigned char rec[8];
    if (std::fread(rec, 1, sizeof rec, f.get()) != sizeof rec)
      throw IoError(path, 0,
                    "truncated edge section (edge " + std::to_string(i) +
                        " of " + std::to_string(num_edges) + ")");
    TimestampedEdge& te = data.edges[i];
    te.e = Edge{get_u32(rec), get_u32(rec + 4)};
    if (te.e.u >= data.num_vertices || te.e.v >= data.num_vertices)
      throw IoError(path, 0,
                    "edge " + std::to_string(i) +
                        " references a vertex out of range");
  }
  if (data.has_timestamps) {
    for (std::uint64_t i = 0; i < num_edges; ++i) {
      unsigned char rec[8];
      if (std::fread(rec, 1, sizeof rec, f.get()) != sizeof rec)
        throw IoError(path, 0, "truncated timestamp section");
      data.edges[i].time = get_u64(rec);
    }
  }
  unsigned char extra;
  if (std::fread(&extra, 1, 1, f.get()) == 1)
    throw IoError(path, 0, "trailing bytes after declared payload");
  data.stats.data_lines = data.edges.size();
  // The edge array was sized exactly from the header in one pass; the
  // footprint it reports is therefore the minimum for this dataset.
  data.stats.memory_footprint_bytes =
      data.edges.capacity() * sizeof(TimestampedEdge);
  return data;
}

/// Reads one v2 section frame at `off` (the current file position),
/// CRC-checks the payload, and returns it. Every failure names the file
/// and the byte offset of the damage.
std::vector<unsigned char> read_section(const File& f, const std::string& path,
                                        std::uint64_t& off,
                                        std::uint32_t& tag_out) {
  unsigned char head[kSectionHeaderBytes];
  const std::size_t got = std::fread(head, 1, sizeof head, f.get());
  if (got != sizeof head)
    throw IoError(path, 0, "truncated section header" + at_offset(off));
  tag_out = get_u32(head);
  const std::uint64_t len = get_u64(head + 8);
  if (get_u32(head + 4) != 0)
    throw IoError(path, 0, "corrupt section header (reserved bits set)" +
                               at_offset(off));
  // 1 GiB sanity cap: a flipped length bit must not drive a huge
  // allocation before the CRC gets a chance to reject the section.
  if (len > (1ull << 30))
    throw IoError(path, 0,
                  "section " + tag_name(tag_out) + " declares implausible " +
                      std::to_string(len) + " bytes" + at_offset(off));
  std::vector<unsigned char> payload(static_cast<std::size_t>(len));
  if (len > 0 &&
      std::fread(payload.data(), 1, payload.size(), f.get()) != payload.size())
    throw IoError(path, 0,
                  "truncated section " + tag_name(tag_out) + at_offset(off));
  unsigned char crc_raw[4];
  if (std::fread(crc_raw, 1, sizeof crc_raw, f.get()) != sizeof crc_raw)
    throw IoError(path, 0,
                  "truncated section " + tag_name(tag_out) + at_offset(off));
  const std::uint32_t want = get_u32(crc_raw);
  const std::uint32_t have = crc32(payload.data(), payload.size());
  if (want != have)
    throw IoError(path, 0,
                  "section " + tag_name(tag_out) + " CRC mismatch" +
                      at_offset(off) + " (stored " + std::to_string(want) +
                      ", computed " + std::to_string(have) + ")");
  off += kSectionHeaderBytes + len + 4;
  return payload;
}

PcgCheckpoint load_pcg_v2(const File& f, const std::string& path,
                          const unsigned char* header) {
  if (get_u32(header + 8) != 0)
    throw IoError(path, 0, "unknown flag bits set");
  PcgCheckpoint ck;
  ck.num_vertices = get_u64(header + 16);
  const std::uint64_t num_edges = get_u64(header + 24);
  if (ck.num_vertices > kInvalidVertex)
    throw IoError(path, 0, "num_vertices overflows the VertexId space");

  bool seen_meta = false, seen_edge = false, seen_core = false,
       seen_ordr = false;
  std::uint64_t off = kHeaderBytes;
  for (;;) {
    // Peek for a clean EOF exactly at a section boundary.
    const int c = std::fgetc(f.get());
    if (c == EOF) break;
    std::ungetc(c, f.get());

    const std::uint64_t section_off = off;
    std::uint32_t tag = 0;
    const std::vector<unsigned char> payload = read_section(f, path, off, tag);
    auto expect_len = [&](std::uint64_t want, const char* what) {
      if (payload.size() != want)
        throw IoError(path, 0,
                      "section " + tag_name(tag) + " holds " +
                          std::to_string(payload.size()) + " bytes, expected " +
                          std::to_string(want) + " (" + what + ")" +
                          at_offset(section_off));
    };
    auto expect_once = [&](bool& seen) {
      if (seen)
        throw IoError(path, 0,
                      "duplicate section " + tag_name(tag) +
                          at_offset(section_off));
      seen = true;
    };
    if (tag == kSecMeta) {
      expect_once(seen_meta);
      expect_len(16, "epoch + reserved");
      ck.epoch = get_u64(payload.data());
    } else if (tag == kSecEdge) {
      expect_once(seen_edge);
      expect_len(num_edges * 8, "8 bytes per edge");
      ck.edges.resize(static_cast<std::size_t>(num_edges));
      for (std::uint64_t i = 0; i < num_edges; ++i) {
        const unsigned char* rec = payload.data() + i * 8;
        const Edge e{get_u32(rec), get_u32(rec + 4)};
        if (e.u >= ck.num_vertices || e.v >= ck.num_vertices || e.u == e.v)
          throw IoError(path, 0,
                        "edge " + std::to_string(i) +
                            " is degenerate or out of range" +
                            at_offset(section_off));
        ck.edges[static_cast<std::size_t>(i)] = e;
      }
    } else if (tag == kSecCore) {
      expect_once(seen_core);
      expect_len(ck.num_vertices * 4, "4 bytes per vertex");
      ck.core.resize(static_cast<std::size_t>(ck.num_vertices));
      for (std::uint64_t v = 0; v < ck.num_vertices; ++v) {
        const std::int32_t k =
            static_cast<std::int32_t>(get_u32(payload.data() + v * 4));
        if (k < 0)
          throw IoError(path, 0,
                        "vertex " + std::to_string(v) + " has negative core" +
                            at_offset(section_off));
        ck.core[static_cast<std::size_t>(v)] = k;
      }
    } else if (tag == kSecOrdr) {
      expect_once(seen_ordr);
      expect_len(ck.num_vertices * 4, "4 bytes per vertex");
      ck.order.resize(static_cast<std::size_t>(ck.num_vertices));
      for (std::uint64_t i = 0; i < ck.num_vertices; ++i) {
        const VertexId v = get_u32(payload.data() + i * 4);
        if (v >= ck.num_vertices)
          throw IoError(path, 0,
                        "order entry " + std::to_string(i) + " out of range" +
                            at_offset(section_off));
        ck.order[static_cast<std::size_t>(i)] = v;
      }
    } else {
      throw IoError(path, 0,
                    "unknown section '" + tag_name(tag) + "'" +
                        at_offset(section_off));
    }
  }
  auto require = [&](bool seen, const char* name) {
    if (!seen)
      throw IoError(path, 0,
                    std::string("missing section ") + name + at_offset(off));
  };
  require(seen_meta, "META");
  require(seen_edge, "EDGE");
  require(seen_core, "CORE");
  require(seen_ordr, "ORDR");
  return ck;
}

}  // namespace

void save_pcg_checkpoint(const std::string& path, const PcgCheckpoint& ck) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) throw IoError(path, 0, "cannot open for writing");

  unsigned char header[kHeaderBytes] = {};
  std::memcpy(header, kPcgMagic, 4);
  put_u32(header + 4, kPcgCheckpointVersion);
  put_u64(header + 16, ck.num_vertices);
  put_u64(header + 24, ck.edges.size());
  write_all(f, path, header, sizeof header, "header");

  std::vector<unsigned char> buf;
  buf.resize(16);
  put_u64(buf.data(), ck.epoch);
  put_u64(buf.data() + 8, 0);
  write_section(f, path, kSecMeta, buf.data(), buf.size());

  buf.resize(ck.edges.size() * 8);
  for (std::size_t i = 0; i < ck.edges.size(); ++i) {
    put_u32(buf.data() + i * 8, ck.edges[i].u);
    put_u32(buf.data() + i * 8 + 4, ck.edges[i].v);
  }
  write_section(f, path, kSecEdge, buf.data(), buf.size());

  buf.resize(ck.core.size() * 4);
  for (std::size_t v = 0; v < ck.core.size(); ++v)
    put_u32(buf.data() + v * 4, static_cast<std::uint32_t>(ck.core[v]));
  write_section(f, path, kSecCore, buf.data(), buf.size());

  buf.resize(ck.order.size() * 4);
  for (std::size_t i = 0; i < ck.order.size(); ++i)
    put_u32(buf.data() + i * 4, ck.order[i]);
  write_section(f, path, kSecOrdr, buf.data(), buf.size());

  if (std::fflush(f.get()) != 0) throw IoError(path, 0, "flush failed");
  if (::fsync(fileno(f.get())) != 0)
    throw IoError(path, 0, "fsync failed");
}

PcgCheckpoint load_pcg_checkpoint(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) throw IoError(path, 0, "cannot open for reading");
  unsigned char header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, f.get()) != kHeaderBytes)
    throw IoError(path, 0, "truncated header (not a .pcg checkpoint?)");
  if (std::memcmp(header, kPcgMagic, 4) != 0)
    throw IoError(path, 0, "bad magic (not a .pcg file)");
  const std::uint32_t version = get_u32(header + 4);
  if (version != kPcgCheckpointVersion)
    throw IoError(path, 0,
                  ".pcg version " + std::to_string(version) +
                      " is not a checkpoint (expected version " +
                      std::to_string(kPcgCheckpointVersion) + ")");
  return load_pcg_v2(f, path, header);
}

}  // namespace parcore::io
