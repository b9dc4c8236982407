// Defensive-behaviour tests: malformed inputs, degenerate graphs, and
// batches designed to hit skip paths everywhere.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "baseline/je.h"
#include "decomp/bz.h"
#include "durability/inject.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "io/checksum.h"
#include "io/io_error.h"
#include "io/pcg.h"
#include "maint/seq_order.h"
#include "parallel/parallel_order.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

TEST(FailureInjection, EmptyBatches) {
  auto g = test::make_graph(4, {{0, 1}, {1, 2}});
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  std::vector<Edge> empty;
  BatchResult ri = m.insert_batch(empty, 4);
  BatchResult rr = m.remove_batch(empty, 4);
  EXPECT_EQ(ri.applied, 0u);
  EXPECT_EQ(rr.applied, 0u);
  test::expect_cores_match(g, m.cores(), "empty");
}

TEST(FailureInjection, AllInvalidEdgesBatch) {
  auto g = test::make_graph(4, {{0, 1}, {1, 2}});
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  std::vector<Edge> bad{{0, 0}, {1, 1}, {9, 10}, {0, 99}, {0, 1}};
  BatchResult r = m.insert_batch(bad, 4);
  EXPECT_EQ(r.applied, 0u);
  EXPECT_EQ(r.skipped, bad.size());
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err)) << err;
}

TEST(FailureInjection, RemoveBatchOfAbsentEdges) {
  auto g = test::make_graph(4, {{0, 1}});
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  std::vector<Edge> absent{{2, 3}, {0, 2}, {1, 3}, {0, 0}};
  BatchResult r = m.remove_batch(absent, 4);
  EXPECT_EQ(r.applied, 0u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(FailureInjection, BatchEntirelyDuplicatesOfOneEdge) {
  // Maximal same-pair contention: every worker fights for one edge.
  auto g = test::make_graph(4, {{0, 1}, {1, 2}});
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  std::vector<Edge> dup(500, Edge{2, 3});
  BatchResult r = m.insert_batch(dup, 8);
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(r.skipped, 499u);
  test::expect_cores_match(g, m.cores(), "dup flood");
  BatchResult rr = m.remove_batch(dup, 8);
  EXPECT_EQ(rr.applied, 1u);
}

TEST(FailureInjection, SingleVertexAndEmptyGraphs) {
  DynamicGraph g1(1);
  ThreadTeam team(2);
  ParallelOrderMaintainer m1(g1, team);
  EXPECT_EQ(m1.core(0), 0);
  EXPECT_FALSE(m1.insert_edge(0, 0));

  DynamicGraph g0(0);
  ParallelOrderMaintainer m0(g0, team);
  std::vector<Edge> batch{{0, 1}};
  EXPECT_EQ(m0.insert_batch(batch, 2).applied, 0u);
}

TEST(FailureInjection, TwoVertexGraphLifecycle) {
  DynamicGraph g(2);
  ThreadTeam team(2);
  ParallelOrderMaintainer m(g, team);
  EXPECT_TRUE(m.insert_edge(0, 1));
  EXPECT_EQ(m.core(0), 1);
  EXPECT_TRUE(m.remove_edge(0, 1));
  EXPECT_EQ(m.core(0), 0);
  EXPECT_FALSE(m.remove_edge(0, 1));
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err)) << err;
}

TEST(FailureInjection, SequentialMaintainerRejectsBadEdges) {
  auto g = test::make_graph(3, {{0, 1}});
  SeqOrderMaintainer seq(g);
  for (auto [u, v] : {std::pair<VertexId, VertexId>{0, 0},  // self-loop
                      {0, 1},                               // duplicate
                      {0, 9},                               // out of range
                      {7, 8}}) {
    EXPECT_FALSE(seq.insert_edge(u, v)) << u << "," << v;
  }
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(seq.core(0), 1);
  std::string err;
  EXPECT_TRUE(seq.state().check_invariants(g, &err)) << err;
}

TEST(FailureInjection, JeRejectsMalformedBatch) {
  auto g = test::make_graph(4, {{0, 1}, {1, 2}});
  ThreadTeam team(4);
  JeMaintainer m(g, team);
  std::vector<Edge> bad{{0, 0}, {9, 10}, {0, 1}, {2, 3}};
  EXPECT_EQ(m.insert_batch(bad, 4), 1u);  // only (2,3); (0,1) is a dup
  EXPECT_EQ(m.remove_batch(bad, 4), 2u);  // removes (0,1) and (2,3)
}

TEST(FailureInjection, RemoveEverythingTwice) {
  Rng rng(3);
  auto edges = gen_erdos_renyi(100, 300, rng);
  auto g = DynamicGraph::from_edges(100, edges);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  EXPECT_EQ(m.remove_batch(edges, 8).applied, edges.size());
  EXPECT_EQ(m.remove_batch(edges, 8).applied, 0u);
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(m.core(v), 0);
  // And build it all back.
  EXPECT_EQ(m.insert_batch(edges, 8).applied, edges.size());
  test::expect_cores_match(g, m.cores(), "rebuilt");
}

TEST(FailureInjection, InterleavedDupAndValidEdges) {
  test::Workload w = test::make_workload(Family::kEr, 200, 0.3, 7);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(8);
  ParallelOrderMaintainer m(g, team);
  // Triple every batch edge so workers race on duplicates constantly.
  std::vector<Edge> tripled;
  for (const Edge& e : w.batch) {
    tripled.push_back(e);
    tripled.push_back(Edge{e.v, e.u});
    tripled.push_back(e);
  }
  BatchResult r = m.insert_batch(tripled, 8);
  EXPECT_EQ(r.applied, w.batch.size());
  test::expect_cores_match(g, m.cores(), "tripled");
  std::string err;
  ASSERT_TRUE(m.state().check_invariants(g, &err)) << err;
}

TEST(FailureInjection, MaxCoreGrowthThroughRepeatedCliques) {
  // Drive the level directory through repeated growth: build cliques of
  // increasing size on the same vertex set.
  DynamicGraph g(24);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  for (std::size_t size = 3; size <= 24; size += 3) {
    std::vector<Edge> batch;
    for (VertexId u = 0; u < size; ++u)
      for (VertexId v = u + 1; v < size; ++v)
        if (!g.has_edge(u, v)) batch.push_back(Edge{u, v});
    m.insert_batch(batch, 4);
    test::expect_cores_match(g, m.cores(),
                             "clique " + std::to_string(size));
  }
  EXPECT_EQ(m.core(0), 23);
}

// ------------------------------------------------ durability corruption
//
// The WAL reader and checkpoint loader must fail CLOSED on anything
// that cannot be explained by a crash mid-append: a durability layer
// that guesses at corrupt bytes silently yields a wrong core index.
// Torn tails (the one artifact a crash legitimately leaves) must be
// tolerated, never thrown.

namespace fs = std::filesystem;

std::string fuzz_path(const std::string& name) {
  std::string p = ::testing::TempDir() + "parcore-fuzz-" + name;
  fs::remove_all(p);
  return p;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Expects `fn` to throw io::IoError whose message contains `frag`.
template <typename Fn>
void expect_io_error(Fn fn, const std::string& frag, const char* context) {
  try {
    fn();
    FAIL() << context << ": expected IoError containing \"" << frag << "\"";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(frag), std::string::npos)
        << context << ": IoError message \"" << e.what()
        << "\" lacks \"" << frag << "\"";
  }
}

/// A WAL with three one-insert frames: header 32 B, frames of 32 B each
/// at offsets 32, 64, 96; total 128 B.
std::string three_frame_wal(const std::string& name) {
  const std::string path = fuzz_path(name);
  durability::WalWriter w = durability::WalWriter::create(path, 0, true);
  w.append(durability::WalRecord{1, {}, {{0, 1}}});
  w.append(durability::WalRecord{2, {}, {{1, 2}}});
  w.append(durability::WalRecord{3, {}, {{2, 3}}});
  w.close();
  return path;
}

TEST(DurabilityFuzz, WalEveryTruncationIsTornOrCleanNeverWrong) {
  const std::string path = three_frame_wal("wal-truncate");
  const std::vector<unsigned char> full = slurp(path);
  ASSERT_EQ(full.size(), 128u);
  // Cutting inside the header can only mean corruption.
  for (std::size_t cut : {0u, 1u, 17u, 31u}) {
    spit(path, {full.begin(), full.begin() + cut});
    expect_io_error([&] { durability::read_wal(path); }, "",
                    ("header cut " + std::to_string(cut)).c_str());
  }
  // Every cut past the header is a torn tail or a clean end: frames
  // before the cut are returned intact, nothing throws.
  for (std::size_t cut = 32; cut <= full.size(); ++cut) {
    spit(path, {full.begin(), full.begin() + cut});
    durability::WalReadResult r = durability::read_wal(path);
    const std::size_t complete = (cut - 32) / 32;
    const bool torn = (cut - 32) % 32 != 0;
    EXPECT_EQ(r.records.size(), complete) << "cut " << cut;
    EXPECT_EQ(r.torn_tail, torn) << "cut " << cut;
    if (torn) EXPECT_EQ(r.torn_offset, 32 + complete * 32) << "cut " << cut;
    for (std::size_t i = 0; i < r.records.size(); ++i)
      EXPECT_EQ(r.records[i].epoch, i + 1) << "cut " << cut;
  }
}

TEST(DurabilityFuzz, WalHeaderDefectsFailClosed) {
  const std::string path = three_frame_wal("wal-header");
  const std::vector<unsigned char> full = slurp(path);

  std::vector<unsigned char> bad = full;  // magic
  bad[0] ^= 0xFF;
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, path, "bad magic");

  bad = full;  // base_epoch byte under the header CRC
  bad[10] ^= 0x01;
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "offset",
                  "flipped base_epoch");

  bad = full;  // reserved bytes are CRC'd too
  bad[20] ^= 0x40;
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "offset",
                  "flipped reserved byte");

  // A version bump with a RE-FORGED valid CRC must still be refused.
  bad = full;
  bad[4] = 99;
  const std::uint32_t crc = io::crc32(bad.data(), 28);
  bad[28] = static_cast<unsigned char>(crc);
  bad[29] = static_cast<unsigned char>(crc >> 8);
  bad[30] = static_cast<unsigned char>(crc >> 16);
  bad[31] = static_cast<unsigned char>(crc >> 24);
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "version",
                  "forged version");
}

TEST(DurabilityFuzz, WalFrameDefectsFailClosedWithOffset) {
  const std::string path = three_frame_wal("wal-frame");
  const std::vector<unsigned char> full = slurp(path);

  // Bit-flip one payload byte of frame 2 (offset 64): its CRC catches
  // it and the error names the frame's byte offset.
  std::vector<unsigned char> bad = full;
  bad[64 + 8 + 3] ^= 0x10;
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "offset 64",
                  "payload bit flip");

  // Flip the stored CRC itself.
  bad = full;
  bad[32 + 4] ^= 0x01;
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "offset 32",
                  "crc bit flip");

  // Impossible lengths: not 16 + 8k, and absurdly huge. Both precede
  // any body read, so even a length that points past EOF fails closed.
  bad = full;
  bad[96] = 20;  // (20 - 16) % 8 != 0
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "length",
                  "misaligned length");

  bad = full;
  bad[96] = 0xFF;  // len = 0xFFFFFFFF > 1 GiB cap
  bad[97] = 0xFF;
  bad[98] = 0xFF;
  bad[99] = 0xFF;
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "length",
                  "huge length");

  // >= 8 bytes of trailing garbage parses as a frame prefix with an
  // absurd length — corruption, not a torn tail.
  bad = full;
  bad.insert(bad.end(), 12, 0xFF);
  spit(path, bad);
  expect_io_error([&] { durability::read_wal(path); }, "length",
                  "trailing garbage");
}

TEST(DurabilityFuzz, WalEpochOrderIsEnforced) {
  // The writer does not police epochs (the engine owns that invariant);
  // the reader must.
  const std::string path = fuzz_path("wal-epoch-regress");
  {
    durability::WalWriter w = durability::WalWriter::create(path, 0, true);
    w.append(durability::WalRecord{5, {}, {{0, 1}}});
    w.append(durability::WalRecord{5, {}, {{1, 2}}});
    w.close();
  }
  expect_io_error([&] { durability::read_wal(path); }, "not after",
                  "repeated epoch");

  const std::string path2 = fuzz_path("wal-epoch-base");
  {
    durability::WalWriter w = durability::WalWriter::create(path2, 7, true);
    w.append(durability::WalRecord{7, {}, {{0, 1}}});
    w.close();
  }
  expect_io_error([&] { durability::read_wal(path2); }, "not after",
                  "epoch equals base");
}

TEST(DurabilityFuzz, CheckpointBitFlipsAndTruncationsFailClosed) {
  const std::string path = fuzz_path("ckpt-flip") + ".pcg";
  io::PcgCheckpoint ck;
  ck.epoch = 9;
  ck.num_vertices = 6;
  ck.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}};
  ck.core = {2, 2, 2, 2, 2, 2};
  ck.order = {0, 1, 2, 3, 4, 5};
  io::save_pcg_checkpoint(path, ck, false);
  const std::vector<unsigned char> full = slurp(path);
  ASSERT_GT(full.size(), 32u);

  // A single flipped bit anywhere must be caught by a section CRC (or
  // the magic/length checks) — sample offsets across the whole file.
  for (std::size_t off :
       {std::size_t{0}, std::size_t{5}, full.size() / 4, full.size() / 2,
        3 * full.size() / 4, full.size() - 1}) {
    std::vector<unsigned char> bad = full;
    bad[off] ^= 0x08;
    spit(path, bad);
    EXPECT_THROW(io::load_pcg_checkpoint(path), io::IoError)
        << "flip at " << off;
  }

  // Truncations at any depth fail closed — a checkpoint has no torn
  // tail concession (the atomic rename means a visible checkpoint was
  // written completely).
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, full.size() / 2,
                          full.size() - 1}) {
    spit(path, {full.begin(), full.begin() + cut});
    EXPECT_THROW(io::load_pcg_checkpoint(path), io::IoError)
        << "cut " << cut;
  }

  spit(path, full);
  io::PcgCheckpoint back = io::load_pcg_checkpoint(path);  // still intact
  EXPECT_EQ(back.epoch, 9u);
  EXPECT_EQ(back.edges.size(), 6u);
}

TEST(DurabilityFuzz, RecoverFallsBackToOlderGenerationOnCorruption) {
  const std::string dir = fuzz_path("ckpt-fallback");
  test::Workload wl = test::make_workload(test::Family::kEr, 40, 0.5, 23);
  {
    DynamicGraph g = DynamicGraph::from_edges(wl.n, wl.base);
    ThreadTeam team(2);
    engine::StreamingEngine::Options opts;
    opts.workers = 2;
    opts.durability.dir = dir;
    opts.durability.checkpoint_interval = 2;
    opts.durability.retain = 4;
    engine::StreamingEngine eng(g, team, opts);
    // Four flushes -> periodic checkpoints at epochs 2 and 4; no
    // shutdown checkpoint (nothing logged after epoch 4's).
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t lo = i * wl.batch.size() / 4;
      const std::size_t hi = (i + 1) * wl.batch.size() / 4;
      for (std::size_t j = lo; j < hi; ++j)
        eng.submit_insert(wl.batch[j].u, wl.batch[j].v);
      eng.flush_now();
    }
    eng.stop();
  }
  ASSERT_EQ(durability::list_checkpoint_epochs(dir),
            (std::vector<std::uint64_t>{0, 2, 4}));

  // Corrupt the newest generation's checkpoint; recovery must skip it
  // and replay generation 2's WAL to the same final epoch.
  const std::string newest = durability::checkpoint_path(dir, 4);
  std::vector<unsigned char> bytes = slurp(newest);
  bytes[bytes.size() / 2] ^= 0x20;
  spit(newest, bytes);

  DynamicGraph g(1);
  ThreadTeam team(2);
  durability::RecoveryResult res;
  durability::RecoveryOptions opts;
  opts.dir = dir;
  opts.workers = 2;
  auto m = durability::recover(opts, g, team, &res);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(res.checkpoints_skipped, 1u);
  EXPECT_EQ(res.checkpoint_epoch, 2u);
  EXPECT_EQ(res.final_epoch, 4u);
  EXPECT_EQ(res.frames_replayed, 2u);
  EXPECT_TRUE(res.verified);
  test::expect_cores_match(g, m->cores(), "fallback generation");
}

// ------------------------------------------- durable-I/O fault points
//
// In-process fault injection (durability/inject.h): the armed syscall
// THROWS io::IoError instead of killing the process, and the engine's
// durable-I/O wrapper must absorb it — retry transient blips, truncate
// torn frames, degrade to memory-only under persistent failure — while
// the served cores stay differentially correct throughout.

/// Arms one fail point for the current scope and clears it (plus the
/// global hit counter) on exit, so tests can't leak faults into each
/// other.
struct FaultGuard {
  explicit FaultGuard(const char* at, int after = 1, int count = 0) {
    ::setenv("PARCORE_DURABILITY_INJECT_AT", at, 1);
    ::setenv("PARCORE_DURABILITY_INJECT_AFTER", std::to_string(after).c_str(),
             1);
    ::setenv("PARCORE_DURABILITY_INJECT_COUNT", std::to_string(count).c_str(),
             1);
    durability::reset_injection_for_test();
  }
  ~FaultGuard() { clear(); }
  static void clear() {
    ::unsetenv("PARCORE_DURABILITY_INJECT_AT");
    ::unsetenv("PARCORE_DURABILITY_INJECT_AFTER");
    ::unsetenv("PARCORE_DURABILITY_INJECT_COUNT");
    ::unsetenv("PARCORE_DURABILITY_INJECT_ERRNO");
    durability::reset_injection_for_test();
  }
};

std::string fault_dir(const std::string& name) {
  std::string d = ::testing::TempDir() + "parcore-fault-" + name;
  std::filesystem::remove_all(d);
  return d;
}

/// K16 edges split into a base graph plus six disjoint flush batches —
/// every flush logs one non-empty WAL frame.
struct FaultWorkload {
  std::size_t n = 16;
  std::vector<Edge> base;
  std::vector<std::vector<Edge>> flushes;
};

FaultWorkload fault_workload() {
  FaultWorkload w;
  std::vector<Edge> all;
  for (VertexId u = 0; u < 16; ++u)
    for (VertexId v = u + 1; v < 16; ++v) all.push_back(Edge{u, v});
  w.base.assign(all.begin(), all.begin() + 40);
  for (int b = 0; b < 6; ++b)
    w.flushes.emplace_back(all.begin() + 40 + b * 10,
                           all.begin() + 50 + b * 10);
  return w;
}

/// Runs the six-flush workload against `dir` with fast retries and
/// differentially verifies the SERVED cores against bz_decompose of
/// the full final graph — the engine must keep serving correct results
/// no matter what the durable path did. Returns the closing stats.
engine::EngineStats run_fault_workload(const std::string& dir,
                                       std::size_t checkpoint_interval = 0,
                                       double rearm_interval_ms = 0.0) {
  FaultWorkload w = fault_workload();
  DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  engine::StreamingEngine::Options opts;
  opts.workers = 2;
  opts.durability.dir = dir;
  opts.durability.checkpoint_interval = checkpoint_interval;
  opts.durability.retry_backoff_ms = 0.0;  // keep the retry loop fast
  opts.durability.rearm_interval_ms = rearm_interval_ms;
  engine::StreamingEngine eng(g, team, opts);
  for (const std::vector<Edge>& batch : w.flushes) {
    for (const Edge& e : batch) eng.submit_insert(e.u, e.v);
    eng.flush_now();
  }
  const engine::EngineStats stats = eng.stats();
  auto snap = eng.snapshot();
  eng.stop();

  const Decomposition expect = bz_decompose(g);
  const std::vector<CoreValue> got = snap->materialize();
  EXPECT_EQ(got.size(), expect.core.size());
  for (VertexId v = 0; v < static_cast<VertexId>(w.n); ++v)
    EXPECT_EQ(got[v], expect.core[v]) << "served core diverged, vertex " << v;
  return stats;
}

TEST(DurableIoFaults, PersistentWalFailuresDegradeButKeepServing) {
  // Every WAL-side point, armed persistently: the retry budget is
  // exhausted, the engine degrades to memory-only, and serving
  // continues differentially correct. The engine must never terminate.
  for (const char* point : {"wal-append", "wal-append-short", "wal-fsync"}) {
    const std::string dir = fault_dir(std::string("persistent-") + point);
    FaultGuard guard(point, /*after=*/1, /*count=*/0);
    const engine::EngineStats stats = run_fault_workload(dir);
    EXPECT_TRUE(stats.durability_degraded) << point;
    EXPECT_GE(stats.durability_retries, 3u) << point;
    FaultGuard::clear();

    // The rollback path leaves no torn frame behind: the directory
    // still recovers cleanly to the pre-failure boundary.
    DynamicGraph rg(1);
    ThreadTeam rteam(2);
    durability::RecoveryResult res;
    durability::RecoveryOptions ropts;
    ropts.dir = dir;
    ropts.workers = 2;
    auto m = durability::recover(ropts, rg, rteam, &res);
    ASSERT_NE(m, nullptr) << point;
    EXPECT_FALSE(res.torn_tail) << point;
    EXPECT_TRUE(res.verified) << point;
    test::expect_cores_match(rg, m->cores(),
                             std::string("recover after ") + point);
  }
}

TEST(DurableIoFaults, PersistentCheckpointFailuresDegradeButKeepServing) {
  // Checkpoint-side points, armed on the first PERIODIC checkpoint
  // (hit 1 is the initial epoch-0 checkpoint, which must commit so the
  // run has a durable base generation).
  for (const char* point :
       {"wal-create", "checkpoint-write", "checkpoint-rename"}) {
    const std::string dir = fault_dir(std::string("persistent-") + point);
    FaultGuard guard(point, /*after=*/2, /*count=*/0);
    const engine::EngineStats stats =
        run_fault_workload(dir, /*checkpoint_interval=*/2);
    EXPECT_TRUE(stats.durability_degraded) << point;
    EXPECT_GE(stats.durability_retries, 3u) << point;
    FaultGuard::clear();

    // The failed generation's tmp/WAL leftovers were cleaned up (or the
    // rename never happened), so recovery lands on the last good
    // generation without skipping damage.
    DynamicGraph rg(1);
    ThreadTeam rteam(2);
    durability::RecoveryResult res;
    durability::RecoveryOptions ropts;
    ropts.dir = dir;
    ropts.workers = 2;
    auto m = durability::recover(ropts, rg, rteam, &res);
    ASSERT_NE(m, nullptr) << point;
    EXPECT_EQ(res.checkpoints_skipped, 0u) << point;
    EXPECT_TRUE(res.verified) << point;
    test::expect_cores_match(rg, m->cores(),
                             std::string("recover after ") + point);
  }
}

TEST(DurableIoFaults, TransientWalBlipIsAbsorbedByRetry) {
  // COUNT=1 models one ENOSPC blip: the first append attempt fails,
  // the retry lands, and the run stays fully durable end to end.
  const std::string dir = fault_dir("transient-append");
  FaultGuard guard("wal-append", /*after=*/1, /*count=*/1);
  const engine::EngineStats stats = run_fault_workload(dir);
  EXPECT_FALSE(stats.durability_degraded);
  EXPECT_GE(stats.durability_retries, 1u);
  FaultGuard::clear();

  // Nothing was lost: recovery reproduces the complete final graph.
  FaultWorkload w = fault_workload();
  DynamicGraph rg(1);
  ThreadTeam rteam(2);
  durability::RecoveryResult res;
  durability::RecoveryOptions ropts;
  ropts.dir = dir;
  ropts.workers = 2;
  auto m = durability::recover(ropts, rg, rteam, &res);
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(rg.num_edges(), 40u + 6u * 10u);
}

TEST(DurableIoFaults, ShortWriteTruncatesTornFrameThenRetrySucceeds) {
  // The injected short write leaves half a frame in the file; the
  // writer must ftruncate back to the last committed boundary before
  // the retry appends, so the WAL never accumulates garbage between
  // frames (which replay would reject as corruption, not a torn tail).
  const std::string dir = fault_dir("short-write");
  FaultGuard guard("wal-append-short", /*after=*/1, /*count=*/1);
  const engine::EngineStats stats = run_fault_workload(dir);
  EXPECT_FALSE(stats.durability_degraded);
  EXPECT_GE(stats.durability_retries, 1u);
  EXPECT_GE(stats.durability.wal_truncate_repairs, 1u);
  FaultGuard::clear();

  DynamicGraph rg(1);
  ThreadTeam rteam(2);
  durability::RecoveryResult res;
  durability::RecoveryOptions ropts;
  ropts.dir = dir;
  ropts.workers = 2;
  auto m = durability::recover(ropts, rg, rteam, &res);
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(res.torn_tail);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(rg.num_edges(), 40u + 6u * 10u);  // fully durable run
}

TEST(DurableIoFaults, DegradedEngineReArmsOnceTheFaultClears) {
  // Persistent failure degrades the engine mid-run; clearing the fault
  // lets the timer-based re-arm take a fresh full checkpoint and turn
  // durability back on without a restart.
  const std::string dir = fault_dir("rearm");
  FaultWorkload w = fault_workload();
  DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  engine::StreamingEngine::Options opts;
  opts.workers = 2;
  opts.durability.dir = dir;
  opts.durability.retry_backoff_ms = 0.0;
  opts.durability.rearm_interval_ms = 1.0;
  engine::StreamingEngine eng(g, team, opts);

  {
    FaultGuard guard("wal-append", /*after=*/1, /*count=*/0);
    for (const Edge& e : w.flushes[0]) eng.submit_insert(e.u, e.v);
    eng.flush_now();
    // The 1ms re-arm interval can elapse inside this very flush on a
    // loaded machine, in which case the end-of-flush probe (a fresh
    // checkpoint, which the wal-append fault does not touch) has
    // already re-armed by the time we look. Either observation proves
    // the engine degraded instead of terminating.
    const engine::EngineStats mid = eng.stats();
    EXPECT_TRUE(mid.durability_degraded || mid.durability_rearms >= 1);
    EXPECT_GE(mid.durability_retries, 3u);
  }  // fault cleared here

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (std::size_t b = 1; b < w.flushes.size(); ++b) {
    for (const Edge& e : w.flushes[b]) eng.submit_insert(e.u, e.v);
    eng.flush_now();
  }
  const engine::EngineStats stats = eng.stats();
  EXPECT_FALSE(stats.durability_degraded);
  EXPECT_GE(stats.durability_rearms, 1u);
  eng.stop();

  // The re-armed generation plus its WAL tail reproduce the complete
  // final graph: nothing after the re-arm point was lost.
  DynamicGraph rg(1);
  ThreadTeam rteam(2);
  durability::RecoveryResult res;
  durability::RecoveryOptions ropts;
  ropts.dir = dir;
  ropts.workers = 2;
  auto m = durability::recover(ropts, rg, rteam, &res);
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(rg.num_edges(), 40u + 6u * 10u);
  test::expect_cores_match(rg, m->cores(), "recover after re-arm");
}

}  // namespace
}  // namespace parcore
