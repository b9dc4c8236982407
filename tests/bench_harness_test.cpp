// Behavioural tests for the benchmark harness: the evaluation protocol
// itself must be sound (batch disjoint from base, temporal contiguity,
// round-trip restoration) or every measured number is meaningless.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include "graph/edge_list.h"
#include "harness.h"
#include "test_util.h"

namespace parcore::bench {
namespace {

TEST(BenchHarness, WorkerSweepIsPowersOfTwo) {
  EXPECT_EQ(worker_sweep(16), (std::vector<int>{1, 2, 4, 8, 16}));
  EXPECT_EQ(worker_sweep(1), (std::vector<int>{1}));
  EXPECT_EQ(worker_sweep(5), (std::vector<int>{1, 2, 4}));
}

TEST(BenchHarness, PreparedWorkloadPartitionsEdges) {
  SuiteSpec spec = table2_suite()[0];  // livej stand-in
  PreparedWorkload w = prepare_workload(spec, 0.02, 300);
  EXPECT_FALSE(w.batch.empty());
  EXPECT_FALSE(w.base_edges.empty());
  // Batch and base are disjoint and together cover the full graph.
  std::set<std::uint64_t> base_keys;
  for (const Edge& e : w.base_edges) base_keys.insert(edge_key(e));
  for (const Edge& e : w.batch)
    EXPECT_FALSE(base_keys.contains(edge_key(e)));
}

TEST(BenchHarness, BatchFactorShrinksPathologicalBatches) {
  SuiteSpec ba;
  for (const SuiteSpec& s : table2_suite())
    if (s.name == "BA") ba = s;
  PreparedWorkload w = prepare_workload(ba, 0.02, 1000);
  EXPECT_LE(w.batch.size(), 250u);  // batch_factor 0.25
}

TEST(BenchHarness, TemporalBatchIsSuffixOfStream) {
  SuiteSpec temporal;
  for (const SuiteSpec& s : table2_suite())
    if (s.temporal) temporal = s;
  ASSERT_TRUE(temporal.temporal);
  PreparedWorkload w = prepare_workload(temporal, 0.02, 200);
  // The batch must be the most recent contiguous range: rebuilding the
  // suite graph and taking its tail (after dedup) must match.
  SuiteGraph sg = build_suite_graph(temporal, 0.02);
  std::vector<Edge> all;
  for (const TimestampedEdge& te : sg.temporal) all.push_back(te.e);
  canonicalize_edges(all);
  ASSERT_GE(all.size(), w.batch.size());
  for (std::size_t i = 0; i < w.batch.size(); ++i)
    EXPECT_EQ(w.batch[i], all[all.size() - w.batch.size() + i]);
}

TEST(BenchHarness, InsertRemoveRoundTripRestoresBase) {
  // The timing protocol reuses one maintainer across repetitions; that
  // is only valid if removing the inserted batch restores the base
  // graph's cores exactly.
  SuiteSpec spec = table2_suite()[2];  // wikitalk stand-in
  PreparedWorkload w = prepare_workload(spec, 0.02, 200);
  DynamicGraph g = base_graph(w);
  ThreadTeam team(4);
  ParallelOrderMaintainer m(g, team);
  auto before = m.cores();
  m.insert_batch(w.batch, 4);
  m.remove_batch(w.batch, 4);
  EXPECT_EQ(m.cores(), before);
  EXPECT_EQ(g.num_edges(), w.base_edges.size());
}

// One checked cell per maintainer: the timer runs every rep and finds
// the base cores and edge count again after each insert+remove.
void expect_clean_cell(Algo algo, int workers) {
  PreparedWorkload w = prepare_workload(table2_suite()[2], 0.02, 100);
  ThreadTeam team(4);
  const TimedCell r =
      time_cell(w, team, {.algo = algo, .workers = workers, .reps = 2});
  EXPECT_EQ(r.insert_ms.count, 2u);
  EXPECT_EQ(r.remove_ms.count, 2u);
  EXPECT_EQ(r.mismatch, "") << algo_name(algo);
  EXPECT_GT(r.max_core, 0);
}

TEST(BenchHarness, TimedCellOur) { expect_clean_cell(Algo::kOur, 4); }
TEST(BenchHarness, TimedCellSeq) { expect_clean_cell(Algo::kSeq, 1); }
TEST(BenchHarness, TimedCellJe) { expect_clean_cell(Algo::kJe, 4); }

TEST(BenchHarness, TimedCellReportsMismatch) {
  // A base edge in the batch: insert skips it, remove deletes it from
  // the base, so the edge count no longer matches.
  PreparedWorkload w = prepare_workload(table2_suite()[2], 0.02, 100);
  w.batch.push_back(w.base_edges.front());
  ThreadTeam team(4);
  for (Algo algo : {Algo::kOur, Algo::kSeq, Algo::kJe}) {
    const TimedCell r = time_cell(w, team, {.algo = algo, .workers = 2});
    EXPECT_NE(r.mismatch.find("edges"), std::string::npos)
        << algo_name(algo) << ": " << r.mismatch;
  }
}

// Fake scorers: each returns the next value of a fixed sequence and
// logs which side ran, so the routine's run order and statistic show.
struct FakeScorers {
  std::vector<double> off_scores, on_scores;
  std::string calls;
  std::size_t off_i = 0, on_i = 0;
  std::function<double()> off() {
    return [this] { calls += 'f'; return off_scores[off_i++]; };
  }
  std::function<double()> on() {
    return [this] { calls += 'n'; return on_scores[on_i++]; };
  }
};

TEST(BenchHarness, OverheadRatesAlternateAndKeepEachSidesBest) {
  FakeScorers f{{100, 120, 110}, {90, 114, 80}};
  const OverheadPair p =
      measure_overhead(3, Score::kUpdatesPerSec, f.off(), f.on());
  EXPECT_EQ(f.calls, "fnfnfn");
  EXPECT_DOUBLE_EQ(p.off_updates_per_sec, 120);
  EXPECT_DOUBLE_EQ(p.on_updates_per_sec, 114);
  EXPECT_DOUBLE_EQ(p.overhead_pct, 5.0);  // on is 5% slower: positive
  ASSERT_EQ(p.pairs.size(), 3u);
  EXPECT_DOUBLE_EQ(p.pairs[0], 10.0);
  EXPECT_DOUBLE_EQ(p.pairs[1], 5.0);
  EXPECT_NEAR(p.pairs[2], 100.0 * 30 / 110, 1e-9);

  FakeScorers faster{{100}, {110}};
  EXPECT_DOUBLE_EQ(
      measure_overhead(1, Score::kUpdatesPerSec, faster.off(), faster.on())
          .overhead_pct,
      -10.0);
}

TEST(BenchHarness, OverheadCostsKeepTheLowestAndReportRates) {
  FakeScorers f{{4.0, 2.0}, {2.5, 3.0}};  // ns per update
  const OverheadPair p =
      measure_overhead(2, Score::kNsPerUpdate, f.off(), f.on());
  EXPECT_EQ(f.calls, "fnfn");
  EXPECT_DOUBLE_EQ(p.off_updates_per_sec, 1e9 / 2.0);
  EXPECT_DOUBLE_EQ(p.on_updates_per_sec, 1e9 / 2.5);
  EXPECT_DOUBLE_EQ(p.overhead_pct, 25.0);  // on costs 25% more: positive
  ASSERT_EQ(p.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(p.pairs[0], -37.5);
  EXPECT_DOUBLE_EQ(p.pairs[1], 50.0);
}

std::size_t bench_wal_dirs() {
  const std::string prefix =
      "parcore-bench-wal-" + std::to_string(::getpid()) + "-";
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path()))
    if (entry.path().filename().string().starts_with(prefix)) ++count;
  return count;
}

TEST(BenchHarness, DurableEngineCellLogsAndCleansUp) {
  BenchEnv env;
  env.scale = 0.02;
  const EngineEdgePool pool = engine_edge_pool(env);
  const auto streams = producer_update_streams(pool.edges, 2, 20000);
  ThreadTeam team(2);
  engine::StreamingEngine::Options opts;
  opts.workers = 2;
  opts.flush_threshold = 512;
  const EngineCellResult r =
      run_engine_cell(pool.n, pool.base, streams, team, opts, true);
  EXPECT_EQ(r.stats.submitted, 20000u);
  EXPECT_GE(r.stats.durability.checkpoints, 1u);
  EXPECT_GT(r.stats.durability.wal_frames, 0u);
  EXPECT_EQ(bench_wal_dirs(), 0u);

  const Json row = engine_cell_json("fixed-2k", "wal-on", 2, 2, 0, r);
  EXPECT_NE(row.dump().find("\"wal_frames\": " +
                            std::to_string(r.stats.durability.wal_frames)),
            std::string::npos);
}

TEST(BenchHarness, EnvDefaults) {
  unsetenv("PARCORE_BENCH_FAST");
  unsetenv("PARCORE_BENCH_SCALE");
  unsetenv("PARCORE_BENCH_BATCH");
  BenchEnv env = bench_env();
  EXPECT_DOUBLE_EQ(env.scale, 0.2);
  EXPECT_EQ(env.batch, 5000u);
  setenv("PARCORE_BENCH_FAST", "1", 1);
  BenchEnv fast = bench_env();
  EXPECT_LT(fast.scale, env.scale);
  unsetenv("PARCORE_BENCH_FAST");
}

}  // namespace
}  // namespace parcore::bench
