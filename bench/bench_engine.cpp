// The streaming engine bench: every engine cell, and the three off/on
// overhead pairs CI gates on, in one run over a skewed (R-MAT) suite
// graph, or a real dataset when PARCORE_BENCH_INPUT names a file
// (loaded through src/io; see docs/FORMATS.md). Each cell runs the full
// pipeline: concurrent submit, coalesce, batched maintain, snapshot
// publish, plus the WAL or admission control when the row's mode turns
// them on.
//
// Rows (one run_engine_cell each, one engine_cell_json schema):
//   plain      fixed-2k, fixed-16k and adaptive batch policies, 2
//              producers, at every worker_sweep point up to 4
//   wal-on     fixed-2k with WAL + checkpoints at the same points; its
//              wal-off twin is the fixed-2k plain row
//   unbounded  the overload reference: fixed-2k, 4 producers, no cap
//   block, shed, degrade  the overload policies at caps 1024 and 4096,
//              tight enough that 4 producers outrun the flush pipeline
//
// Overhead pairs (measure_overhead: off then on, `reps` times, each
// side keeps its best score), each run right after the rows of the
// subsystem it prices:
//   obs_overhead        no span sink vs a sink that renders every flush
//                       span as a JSON line into memory (serve's
//                       --trace-out work minus the file write); best of
//                       3; CI bound 2%
//   wal_overhead        durability off vs on (fsync included: the
//                       honest price); best of 3; CI bound 10%
//   admission_overhead  no cap vs a cap that never fires; best of 5;
//                       CI bound 2%
//
// Writes BENCH_engine.json (harness.h: PARCORE_BENCH_JSON_DIR).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/export.h"

using namespace parcore;
using namespace parcore::bench;

namespace {

using Options = engine::StreamingEngine::Options;
using Streams = std::vector<std::vector<GraphUpdate>>;

/// Every cell starts from the fixed-2k batch policy.
Options fixed_2k(int workers) {
  Options opts;
  opts.workers = workers;
  opts.flush_threshold = 2048;
  opts.flush_interval_ms = 2.0;
  return opts;
}

void print_overhead(const char* name, const OverheadPair& p) {
  std::printf("%s overhead: off %.1f kups, on %.1f kups (%.2f%%); pairs",
              name, p.off_updates_per_sec / 1000.0,
              p.on_updates_per_sec / 1000.0, p.overhead_pct);
  for (double pct : p.pairs) std::printf(" %.2f", pct);
  std::printf("\n");
}

}  // namespace

int main() {
  WallTimer wall;
  const BenchEnv env = bench_env();
  const std::size_t ops_total = env.fast ? 50000 : 400000;

  // Default workload: skewed power-law stand-in, the shape where
  // coalescing pays (hot edges are resubmitted and cancelled
  // constantly). PARCORE_BENCH_INPUT swaps in a real dataset.
  const EngineEdgePool pool = engine_edge_pool(env);
  const int workers = std::min(env.max_workers, 4);
  ThreadTeam team(env.max_workers);
  const Streams streams2 = producer_update_streams(pool.edges, 2, ops_total);
  const Streams streams4 = producer_update_streams(pool.edges, 4, ops_total);

  std::printf("== engine: %s (n=%zu, base m=%zu, %zu ops) ==\n\n",
              pool.name.c_str(), pool.n, pool.base.size(), ops_total);

  Json rows = Json::array();
  Table table({"policy", "mode", "prod", "workers", "cap", "kups", "epochs",
               "p99 flush ms", "wal frames", "ckpts", "shed", "blocked ms",
               "compacted"});
  auto row = [&](const char* policy, const char* mode, const Streams& streams,
                 const Options& opts, bool durable) {
    const EngineCellResult r =
        run_engine_cell(pool.n, pool.base, streams, team, opts, durable);
    const int producers = static_cast<int>(streams.size());
    const double p99_ms =
        static_cast<double>(r.stats.flush_us.quantile_upper(0.99)) / 1000.0;
    const auto& adm = r.stats.admission;
    table.add_row({policy, mode, std::to_string(producers),
                   std::to_string(opts.workers),
                   std::to_string(opts.ingest_cap),
                   fmt(r.updates_per_sec / 1000.0, 1),
                   std::to_string(r.stats.epochs), fmt(p99_ms, 2),
                   std::to_string(r.stats.durability.wal_frames),
                   std::to_string(r.stats.durability.checkpoints),
                   std::to_string(adm.shed),
                   fmt(static_cast<double>(adm.blocked_us) / 1000.0, 1),
                   std::to_string(adm.compacted)});
    rows.push(engine_cell_json(policy, mode, producers, opts.workers,
                               opts.ingest_cap, r));
  };

  struct Policy {
    const char* name;
    std::size_t threshold;
    bool adaptive;
  };
  const Policy policies[] = {
      {"fixed-2k", 2048, false},
      {"fixed-16k", 16384, false},
      {"adaptive", 4096, true},
  };
  const std::vector<int> sweep = worker_sweep(workers);
  for (const Policy& policy : policies) {
    for (int w : sweep) {
      Options opts = fixed_2k(w);
      opts.flush_threshold = policy.threshold;
      opts.adaptive = policy.adaptive;
      row(policy.name, "plain", streams2, opts, false);
    }
  }

  // obs: the same cell without and with a span sink.
  std::string trace_lines;
  Options traced = fixed_2k(workers);
  traced.span_sink = [&trace_lines](const obs::FlushSpan& span) {
    trace_lines += obs::trace_json_line(span);
    trace_lines += '\n';
  };
  const OverheadPair obs_pair = measure_overhead(
      3, Score::kUpdatesPerSec,
      [&] {
        return run_engine_cell(pool.n, pool.base, streams2, team,
                               fixed_2k(workers))
            .updates_per_sec;
      },
      [&] {
        trace_lines.clear();
        return run_engine_cell(pool.n, pool.base, streams2, team, traced)
            .updates_per_sec;
      });
  print_overhead("obs", obs_pair);

  for (int w : sweep) row("fixed-2k", "wal-on", streams2, fixed_2k(w), true);

  // WAL: the same cell with durability off and on. The pair keeps a
  // floor on its op count even under PARCORE_BENCH_FAST: the fixed
  // initial/final checkpoint cost must amortize over the run (at 50k
  // ops it reads as ~20% "overhead"; at 400k the steady-state WAL price
  // dominates, which is what the gate is about).
  const Streams wal_streams = producer_update_streams(
      pool.edges, 2, std::max<std::size_t>(ops_total, 400000));
  auto wal_cell = [&](bool durable) {
    return run_engine_cell(pool.n, pool.base, wal_streams, team,
                           fixed_2k(workers), durable)
        .updates_per_sec;
  };
  const OverheadPair wal_pair =
      measure_overhead(3, Score::kUpdatesPerSec, [&] { return wal_cell(false); },
                       [&] { return wal_cell(true); });
  print_overhead("wal", wal_pair);

  struct Overload {
    const char* name;
    engine::OverloadPolicy policy;
  };
  row("fixed-2k", "unbounded", streams4, fixed_2k(workers), false);
  for (const Overload& mode : {Overload{"block", engine::OverloadPolicy::kBlock},
                               Overload{"shed", engine::OverloadPolicy::kShed},
                               Overload{"degrade",
                                        engine::OverloadPolicy::kDegrade}}) {
    for (std::size_t cap : {std::size_t{1024}, std::size_t{4096}}) {
      Options opts = fixed_2k(workers);
      opts.ingest_cap = cap;
      opts.overload = mode.policy;
      row("fixed-2k", mode.name, streams4, opts, false);
    }
  }

  // Admission: cap off (no admission checks at all) vs a cap that never
  // fires (1<<30, unreachable by construction), so the pair isolates
  // the admission check's hot-path price from any actual throttling.
  //
  // One producer submits to a live engine in 1024-op blocks; a cell's
  // score is the MINIMUM ns/submit over all blocks. Peak submit cost is
  // the right statistic here: every block runs the same instruction
  // stream, so the fastest block is the one that dodged flush drains,
  // cross-core interference and frequency dips, exactly the
  // non-admission noise a wall-clock mean drags in. Two earlier designs
  // measured contended multi-producer throughput (whole-engine, then
  // queue-only) and both swung +-10% run-to-run on shared hardware,
  // flaking a <=2% gate around a true cost of one register compare
  // (~0.3%).
  const std::vector<GraphUpdate> submit_stream =
      producer_update_streams(pool.edges, 1,
                              std::max<std::size_t>(ops_total, 2000000))
          .front();
  constexpr std::size_t kBlock = 1024;
  auto min_submit_ns = [&](std::size_t cap) {
    DynamicGraph g = DynamicGraph::from_edges(pool.n, pool.base);
    Options opts = fixed_2k(workers);
    opts.ingest_cap = cap;
    engine::StreamingEngine eng(g, team, opts);
    eng.start();
    double best = 1e18;
    for (std::size_t b = 0; b + kBlock <= submit_stream.size(); b += kBlock) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = b; i < b + kBlock; ++i) eng.submit(submit_stream[i]);
      best = std::min(best, std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    eng.stop();
    return best / static_cast<double>(kBlock);
  };
  min_submit_ns(0);  // warm-up: page in the stream, settle the team
  const OverheadPair admission_pair = measure_overhead(
      5, Score::kNsPerUpdate, [&] { return min_submit_ns(0); },
      [&] { return min_submit_ns(std::size_t{1} << 30); });
  print_overhead("admission (peak submit path, 1 producer)", admission_pair);
  std::printf("\n");
  table.print();

  Json payload =
      Json::object()
          .set("bench", "engine")
          .set("graph", pool.name)
          .set("n", std::uint64_t{pool.n})
          .set("base_edges", std::uint64_t{pool.base.size()})
          .set("ops_total", std::uint64_t{ops_total})
          .set("scale", env.scale)
          .set("max_workers", env.max_workers)
          .set("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()))
          .set("obs_overhead", overhead_json(obs_pair))
          .set("wal_overhead", overhead_json(wal_pair))
          .set("admission_overhead", overhead_json(admission_pair))
          .set("rows", rows)
          .set("wall_s", wall.elapsed_ms() / 1000.0);
  return write_bench_json("engine", payload).empty() ? 1 : 0;
}
