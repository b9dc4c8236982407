// Durability tests (docs/DURABILITY.md): WAL round-trips, saved-order
// restore, clean-shutdown recovery, and the fork-based crash matrix —
// a child process runs the engine with an injected kill point
// (PARCORE_DURABILITY_INJECT_AT, durability/inject.h), dies with
// _exit(42), and the parent recovers the directory and differentially
// verifies the result against bz_decompose.
//
// Under TSan these forks need TSAN_OPTIONS=die_after_fork=0 (the CI
// tsan job sets it).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "decomp/bz.h"
#include "durability/inject.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "engine/engine.h"
#include "io/io_error.h"
#include "maint/core_state.h"
#include "test_util.h"

namespace parcore {
namespace {

namespace fs = std::filesystem;
using durability::RecoveryOptions;
using durability::RecoveryResult;
using durability::WalReadResult;
using durability::WalRecord;
using durability::WalWriter;

std::string fresh_dir(const std::string& name) {
  std::string d = ::testing::TempDir() + "parcore-recovery-" + name;
  fs::remove_all(d);
  return d;
}

// ---------------------------------------------------------------- WAL

TEST(Wal, WriterReaderRoundTrip) {
  const std::string path = fresh_dir("wal-roundtrip");
  WalWriter w = WalWriter::create(path, /*base_epoch=*/7, /*sync=*/true);
  WalRecord a{8, {{0, 1}}, {{2, 3}, {4, 5}}};
  WalRecord b{9, {}, {{6, 7}}};
  WalRecord c{12, {{8, 9}, {10, 11}}, {}};  // epochs may skip, not repeat
  w.append(a);
  w.append(b);
  w.append(c);
  EXPECT_EQ(w.frames_appended(), 3u);
  EXPECT_GE(w.fsyncs(), 3u);
  w.close();

  WalReadResult r = durability::read_wal(path);
  EXPECT_EQ(r.base_epoch, 7u);
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].epoch, 8u);
  ASSERT_EQ(r.records[0].removes.size(), 1u);
  EXPECT_TRUE(r.records[0].removes[0] == (Edge{0, 1}));
  ASSERT_EQ(r.records[0].inserts.size(), 2u);
  EXPECT_TRUE(r.records[0].inserts[1] == (Edge{4, 5}));
  EXPECT_EQ(r.records[1].epoch, 9u);
  EXPECT_TRUE(r.records[1].removes.empty());
  EXPECT_EQ(r.records[2].epoch, 12u);
  EXPECT_TRUE(r.records[2].inserts.empty());
}

TEST(Wal, TornTailIsToleratedAndLocated) {
  const std::string path = fresh_dir("wal-torn");
  WalWriter w = WalWriter::create(path, 0, true);
  w.append(WalRecord{1, {}, {{0, 1}, {1, 2}}});
  w.append(WalRecord{2, {}, {{2, 3}}});
  w.close();

  // Frame 1 = 8 + (16 + 2*8) = 40 bytes after the 32-byte header.
  const std::uint64_t frame2_offset = 32 + 40;
  const std::uintmax_t full = fs::file_size(path);
  ASSERT_GT(full, frame2_offset);
  fs::resize_file(path, full - 5);  // cut into frame 2's payload

  WalReadResult r = durability::read_wal(path);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.torn_offset, frame2_offset);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].epoch, 1u);

  // Cutting into the length prefix itself is also just a torn tail.
  fs::resize_file(path, frame2_offset + 3);
  WalReadResult r2 = durability::read_wal(path);
  EXPECT_TRUE(r2.torn_tail);
  EXPECT_EQ(r2.records.size(), 1u);
}

TEST(Wal, EmptyWalIsACleanEnd) {
  const std::string path = fresh_dir("wal-empty");
  WalWriter w = WalWriter::create(path, 5, true);
  w.close();
  WalReadResult r = durability::read_wal(path);
  EXPECT_EQ(r.base_epoch, 5u);
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
}

// ------------------------------------------------- saved-order restore

TEST(Restore, RoundTripMatchesFreshStateAndStaysMaintainable) {
  test::Workload wl = test::make_workload(test::Family::kEr, 60, 0.3, 17);
  DynamicGraph g1 = DynamicGraph::from_edges(wl.n, wl.base);
  ThreadTeam team(4);
  ParallelOrderMaintainer fresh(g1, team);
  SavedCoreOrder saved = fresh.state().save_order();

  DynamicGraph g2 = DynamicGraph::from_edges(wl.n, wl.base);
  ParallelOrderMaintainer::Options opts;
  opts.restore = &saved;
  ParallelOrderMaintainer restored(g2, team, opts);
  for (VertexId v = 0; v < wl.n; ++v)
    ASSERT_EQ(restored.core(v), fresh.core(v)) << "vertex " << v;

  // The restored state must be maintainable, not just readable.
  restored.insert_batch(wl.batch, 4);
  test::expect_cores_match(g2, restored.cores(), "post-restore insert");
  restored.remove_batch(wl.batch, 4);
  test::expect_cores_match(g2, restored.cores(), "post-restore remove");
}

TEST(Restore, RejectsCorruptImages) {
  // Clique (core 4) plus a path tail (core 1) so levels differ.
  DynamicGraph g = test::make_graph(
      8, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3},
          {2, 4}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  ThreadTeam team(2);
  ParallelOrderMaintainer m(g, team);
  const SavedCoreOrder good = m.state().save_order();
  ASSERT_GT(good.core[good.order.front()], 0u);
  ASSERT_NE(good.core[good.order.front()], good.core[good.order.back()]);

  auto expect_rejected = [&](SavedCoreOrder bad, const char* what) {
    ParallelOrderMaintainer::Options opts;
    opts.restore = &bad;
    DynamicGraph copy = g;
    EXPECT_THROW(ParallelOrderMaintainer(copy, team, opts),
                 std::runtime_error)
        << what;
  };

  SavedCoreOrder swapped = good;  // breaks non-decreasing cores
  std::swap(swapped.order.front(), swapped.order.back());
  expect_rejected(std::move(swapped), "swapped order");

  SavedCoreOrder dup = good;  // not a permutation
  dup.order[1] = dup.order[0];
  expect_rejected(std::move(dup), "duplicate vertex");

  SavedCoreOrder short_core = good;
  short_core.core.pop_back();
  expect_rejected(std::move(short_core), "short core vector");

  SavedCoreOrder short_order = good;
  short_order.order.pop_back();
  expect_rejected(std::move(short_order), "short order vector");

  // The remaining rejection branches, each with its diagnostic. A
  // rejected install leaves one reused CoreState unusable; the good
  // image must then install over it and pass the full suite.
  CoreState reused;
  auto expect_diagnostic = [&](const SavedCoreOrder& bad,
                               const std::string& diagnostic) {
    ParallelOrderMaintainer::Options opts;
    opts.restore = &bad;
    DynamicGraph copy = g;
    try {
      ParallelOrderMaintainer rejected(copy, team, opts);
      ADD_FAILURE() << "accepted an image that should fail: " << diagnostic;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos)
          << e.what();
    }
    std::string err;
    EXPECT_FALSE(reused.install(copy, bad.core, bad.order, {}, &err));
    EXPECT_EQ(err, diagnostic);
    ASSERT_TRUE(reused.install(copy, good.core, good.order, {}, &err)) << err;
    EXPECT_TRUE(reused.check_invariants(copy, &err, /*check_cores=*/true))
        << diagnostic << ": " << err;
    EXPECT_TRUE(reused.check_prefix(copy, &err)) << diagnostic << ": " << err;
  };

  // The path tail {5, 6, 7} is level 1, the first three entries.
  ASSERT_EQ(good.core[5], 1);
  ASSERT_EQ(good.core[6], 1);
  ASSERT_EQ(good.core[7], 1);

  SavedCoreOrder negative = good;
  negative.core[negative.order.front()] = -1;
  expect_diagnostic(negative, "cores along the saved order decrease at entry 0");

  // Level-ascending, but 6 precedes both its neighbours: dout(6) = 2.
  SavedCoreOrder dout_bound = good;
  dout_bound.order[0] = 6;
  dout_bound.order[1] = 5;
  dout_bound.order[2] = 7;
  expect_diagnostic(dout_bound,
                    "vertex 6 violates the k-order bound (dout 2 > core 1)");

  // The last clique vertex claims core 5: no neighbour reaches it.
  SavedCoreOrder overclaim = good;
  const VertexId top = overclaim.order.back();
  ASSERT_EQ(overclaim.core[top], 4);
  overclaim.core[top] = 5;
  expect_diagnostic(overclaim,
                    "vertex " + std::to_string(top) + " has mcd 0 < core 5");
}

// ---------------------------------------------------- engine + recover

// Deterministic crash workload: K16's 120 edges, 40 as the base graph
// and six flush batches of 10 inserts each. Every batch is non-empty
// and disjoint, so flush k appends exactly WAL frame k with epoch k.
struct CrashWorkload {
  std::size_t n = 16;
  std::vector<Edge> base;
  std::vector<std::vector<Edge>> flushes;
};

CrashWorkload crash_workload() {
  CrashWorkload w;
  std::vector<Edge> all;
  for (VertexId u = 0; u < 16; ++u)
    for (VertexId v = u + 1; v < 16; ++v) all.push_back(Edge{u, v});
  w.base.assign(all.begin(), all.begin() + 40);
  for (int b = 0; b < 6; ++b)
    w.flushes.emplace_back(all.begin() + 40 + b * 10,
                           all.begin() + 50 + b * 10);
  return w;
}

// Runs the engine workload in THIS process; only call after fork(). The
// injected crash point is expected to _exit(42) part-way through; if
// the workload completes, exits 0 so the parent can flag the missing
// crash.
[[noreturn]] void run_crash_child(const std::string& dir, const char* point,
                                  int after, std::size_t interval) {
  ::setenv("PARCORE_DURABILITY_INJECT_AT", point, 1);
  ::setenv("PARCORE_DURABILITY_INJECT_AFTER", std::to_string(after).c_str(),
           1);
  CrashWorkload w = crash_workload();
  DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  engine::StreamingEngine::Options opts;
  opts.workers = 2;
  opts.durability.dir = dir;
  opts.durability.checkpoint_interval = interval;
  engine::StreamingEngine eng(g, team, opts);
  for (const std::vector<Edge>& batch : w.flushes) {
    for (const Edge& e : batch) eng.submit_insert(e.u, e.v);
    eng.flush_now();
  }
  eng.stop();
  ::_exit(0);
}

struct CrashCase {
  const char* point;
  int after;                  // PARCORE_DURABILITY_INJECT_AFTER
  std::size_t interval;       // checkpoint_interval (0 = initial only)
  std::uint64_t expect_ck;    // checkpoint generation recovered from
  std::size_t expect_frames;  // WAL frames replayed
  bool expect_torn;
};

// The full kill-point matrix. The three wal-* points arm the 3rd WAL
// append; the checkpoint-* points arm the PERIODIC checkpoint at flush
// 4 (after=2: hit 1 is the initial epoch-0 checkpoint). In every case
// exactly `expect_ck + expect_frames` of the six flushes survive.
const CrashCase kCrashMatrix[] = {
    // Half of frame 3 reaches the file: torn tail, flushes 1-2 survive.
    {"wal-mid-append", 3, 0, 0, 2, true},
    // Frame 3 fully written but not yet fsynced: a PROCESS crash loses
    // nothing (the page cache survives _exit), so flush 3 survives.
    {"wal-pre-fsync", 3, 0, 0, 3, false},
    // Crash after the group fsync: flush 3 durably survives.
    {"wal-post-fsync", 3, 0, 0, 3, false},
    // Checkpoint 4 dies with a half-written .tmp: never renamed, so
    // recovery uses generation 0 + all four logged frames.
    {"checkpoint-mid-write", 2, 4, 0, 4, false},
    // Checkpoint 4 dies after creating wal-4.log but before the rename:
    // the orphan WAL has no checkpoint and is ignored.
    {"checkpoint-pre-rename", 2, 4, 0, 4, false},
    // Crash just after the rename commit point: recovery starts from
    // generation 4, whose WAL is still empty.
    {"checkpoint-post-rename", 2, 4, 4, 0, false},
};

class CrashMatrix : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashMatrix, RecoversToTheLastDurableFlushBoundary) {
  const CrashCase c = GetParam();
  const std::string dir =
      fresh_dir(std::string("crash-") + c.point + "-" +
                std::to_string(c.after));

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) run_crash_child(dir, c.point, c.after, c.interval);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(status), durability::kCrashExitStatus)
      << "injected crash at " << c.point << " never fired";

  RecoveryOptions opts;
  opts.dir = dir;
  opts.workers = 2;
  opts.verify = true;
  DynamicGraph recovered_graph(1);
  ThreadTeam team(2);
  RecoveryResult res;
  std::unique_ptr<ParallelOrderMaintainer> m =
      durability::recover(opts, recovered_graph, team, &res);
  ASSERT_NE(m, nullptr);

  EXPECT_EQ(res.checkpoint_epoch, c.expect_ck);
  EXPECT_EQ(res.frames_replayed, c.expect_frames);
  EXPECT_EQ(res.final_epoch, c.expect_ck + c.expect_frames);
  EXPECT_EQ(res.torn_tail, c.expect_torn);
  EXPECT_EQ(res.checkpoints_skipped, 0u);
  EXPECT_TRUE(res.verified);

  // Independently rebuild the expected state: base + the batches of
  // every flush at or before the recovered boundary.
  CrashWorkload w = crash_workload();
  const std::size_t boundary =
      static_cast<std::size_t>(res.final_epoch);
  ASSERT_LE(boundary, w.flushes.size());
  std::vector<Edge> edges = w.base;
  for (std::size_t i = 0; i < boundary; ++i)
    edges.insert(edges.end(), w.flushes[i].begin(), w.flushes[i].end());
  DynamicGraph expect_g = DynamicGraph::from_edges(w.n, edges);
  EXPECT_EQ(recovered_graph.num_edges(), expect_g.num_edges());
  Decomposition expect = bz_decompose(expect_g);
  for (VertexId v = 0; v < w.n; ++v)
    EXPECT_EQ(m->core(v), expect.core[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    AllKillPoints, CrashMatrix, ::testing::ValuesIn(kCrashMatrix),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      std::string name = info.param.point;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Recovery, CleanShutdownRecoversWithNothingToReplay) {
  const std::string dir = fresh_dir("clean-shutdown");
  CrashWorkload w = crash_workload();
  {
    DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
    ThreadTeam team(2);
    engine::StreamingEngine::Options opts;
    opts.workers = 2;
    opts.durability.dir = dir;
    opts.durability.checkpoint_interval = 0;  // initial + shutdown only
    engine::StreamingEngine eng(g, team, opts);
    for (const std::vector<Edge>& batch : w.flushes) {
      for (const Edge& e : batch) eng.submit_insert(e.u, e.v);
      eng.flush_now();
    }
    eng.stop();
    engine::EngineStats stats = eng.stats();
    EXPECT_EQ(stats.durability.checkpoints, 2u);  // epoch 0 + shutdown
    EXPECT_EQ(stats.durability.wal_frames, w.flushes.size());
  }

  RecoveryOptions opts;
  opts.dir = dir;
  opts.workers = 2;
  DynamicGraph g(1);
  ThreadTeam team(2);
  RecoveryResult res;
  auto m = durability::recover(opts, g, team, &res);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(res.checkpoint_epoch, w.flushes.size());
  EXPECT_EQ(res.frames_replayed, 0u);
  EXPECT_FALSE(res.torn_tail);
  EXPECT_TRUE(res.verified);
  test::expect_cores_match(g, m->cores(), "clean shutdown");
}

// The verify oracle is pluggable (ISSUE 8): BZ and the parallel exact
// peel must make the SAME accept/reject decision on every directory —
// they compute the same core numbers, so step 4 sees the same diff.
TEST(Recovery, VerifyAlgoParityOnCleanCheckpoint) {
  const std::string dir = fresh_dir("verify-parity-clean");
  CrashWorkload w = crash_workload();
  {
    DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
    ThreadTeam team(2);
    engine::StreamingEngine::Options opts;
    opts.workers = 2;
    opts.durability.dir = dir;
    opts.durability.checkpoint_interval = 0;
    engine::StreamingEngine eng(g, team, opts);
    for (const std::vector<Edge>& batch : w.flushes) {
      for (const Edge& e : batch) eng.submit_insert(e.u, e.v);
      eng.flush_now();
    }
    eng.stop();
  }

  std::vector<CoreValue> first_cores;
  const struct {
    durability::VerifyAlgo algo;
    const char* name;
  } cases[] = {{durability::VerifyAlgo::kBz, "bz"},
               {durability::VerifyAlgo::kParallel, "parallel"}};
  for (const auto& c : cases) {
    RecoveryOptions opts;
    opts.dir = dir;
    opts.workers = 2;
    opts.verify_algo = c.algo;
    DynamicGraph g(1);
    ThreadTeam team(2);
    RecoveryResult res;
    auto m = durability::recover(opts, g, team, &res);
    ASSERT_NE(m, nullptr) << c.name;
    EXPECT_TRUE(res.verified) << c.name;
    EXPECT_STREQ(res.verify_algo, c.name);
    EXPECT_GE(res.verify_ms, 0.0);
    if (first_cores.empty())
      first_cores = m->cores();
    else
      EXPECT_EQ(m->cores(), first_cores) << c.name;
  }
}

TEST(Recovery, VerifyAlgoParityOnCorruptedCheckpoints) {
  const std::string dir = fresh_dir("verify-parity-corrupt");
  CrashWorkload w = crash_workload();
  {
    DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
    ThreadTeam team(2);
    engine::StreamingEngine::Options opts;
    opts.workers = 2;
    opts.durability.dir = dir;
    opts.durability.checkpoint_interval = 0;
    engine::StreamingEngine eng(g, team, opts);
    for (const std::vector<Edge>& batch : w.flushes) {
      for (const Edge& e : batch) eng.submit_insert(e.u, e.v);
      eng.flush_now();
    }
    eng.stop();
  }

  // Trash the payload of every checkpoint generation. Recovery must
  // fail closed — and it must be the SAME decision whichever verify
  // oracle was requested (the failure precedes step 4 here; the
  // doctored-core verify decision itself is unit-tested in
  // bulk_decompose_test via verify_recovered_cores).
  for (const fs::directory_entry& ent : fs::directory_iterator(dir)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind("checkpoint-", 0) != 0) continue;
    std::fstream f(ent.path(), std::ios::in | std::ios::out |
                                   std::ios::binary);
    ASSERT_TRUE(f.is_open()) << name;
    f.seekp(16);
    const char junk[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    f.write(junk, sizeof junk);
  }

  for (auto algo :
       {durability::VerifyAlgo::kBz, durability::VerifyAlgo::kParallel}) {
    RecoveryOptions opts;
    opts.dir = dir;
    opts.workers = 2;
    opts.verify_algo = algo;
    DynamicGraph g(1);
    ThreadTeam team(2);
    EXPECT_THROW(durability::recover(opts, g, team), std::runtime_error);
  }
}

TEST(Recovery, EmptyDirectoryFailsClosed) {
  const std::string dir = fresh_dir("no-checkpoints");
  fs::create_directories(dir);
  RecoveryOptions opts;
  opts.dir = dir;
  DynamicGraph g(1);
  ThreadTeam team(2);
  EXPECT_THROW(durability::recover(opts, g, team), std::runtime_error);
}

TEST(Recovery, RefusesToStartAFreshEngineOverHistory) {
  const std::string dir = fresh_dir("refuse-reuse");
  CrashWorkload w = crash_workload();
  DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  engine::StreamingEngine::Options opts;
  opts.durability.dir = dir;
  { engine::StreamingEngine eng(g, team, opts); }
  DynamicGraph g2 = DynamicGraph::from_edges(w.n, w.base);
  EXPECT_THROW(engine::StreamingEngine(g2, team, opts), io::IoError);
}

// TSan coverage: checkpoints (graph walk + save_order at quiescence)
// racing concurrent snapshot()/stats() readers. checkpoint_interval=1
// checkpoints after every flush while readers hammer the query side.
TEST(Recovery, CheckpointRacesSnapshotAndStatsReaders) {
  const std::string dir = fresh_dir("tear-race");
  CrashWorkload w = crash_workload();
  DynamicGraph g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  engine::StreamingEngine::Options opts;
  opts.workers = 2;
  opts.durability.dir = dir;
  opts.durability.checkpoint_interval = 1;
  engine::StreamingEngine eng(g, team, opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = eng.snapshot();
        acc += snap->core(0) + snap->epoch;
        engine::EngineStats st = eng.stats();
        acc += st.durability.checkpoints + st.phases.checkpoint_us;
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  for (const std::vector<Edge>& batch : w.flushes) {
    for (const Edge& e : batch) eng.submit_insert(e.u, e.v);
    eng.flush_now();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  eng.stop();
  EXPECT_GE(eng.stats().durability.checkpoints, w.flushes.size());

  DynamicGraph rg(1);
  ThreadTeam rteam(2);
  RecoveryResult res;
  auto m = durability::recover(RecoveryOptions{dir, 2, true, {}}, rg, rteam,
                               &res);
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(res.verified);
  test::expect_cores_match(rg, m->cores(), "post-race recover");
}

}  // namespace
}  // namespace parcore
