// Durability overhead: the engine cell from bench_engine_throughput
// measured with the checkpoint+WAL pipeline off and on
// (docs/DURABILITY.md). Three modes per worker count:
//
//   wal-off      durability disabled (the baseline)
//   wal-on       WAL + periodic checkpoints, group fsync per flush
//   wal-nofsync  same, Manager::Options::fsync = false (format-level
//                crash consistency only)
//
// plus a `wal_overhead` cell pair — wal-off vs wal-on on one
// representative configuration, alternated best-of-3 so machine drift
// hits both sides equally — backing the <= 10% durability-overhead
// guard in CI. Emits BENCH_durability.json; rows also carry the WAL
// frame/byte/fsync totals and the wal/checkpoint slices of the flush
// window, so the trajectory shows WHERE the overhead lives, not just
// how big it is.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

using namespace parcore;
using namespace parcore::bench;

namespace {

struct Mode {
  const char* name;
  bool durable;
  bool fsync;
};

/// A fresh, empty durability directory (the engine refuses to start
/// over an existing history).
std::string fresh_wal_dir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("parcore-bench-wal-" + std::to_string(++counter)))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

EngineCellResult run_mode_cell(
    const Mode& mode, std::size_t n, const std::vector<Edge>& base,
    const std::vector<std::vector<GraphUpdate>>& streams, ThreadTeam& team,
    engine::StreamingEngine::Options opts) {
  std::string dir;
  if (mode.durable) {
    dir = fresh_wal_dir();
    opts.durability.dir = dir;
    opts.durability.checkpoint_interval = 64;
    opts.durability.fsync = mode.fsync;
  }
  EngineCellResult r = run_engine_cell(n, base, streams, team, opts);
  if (!dir.empty()) std::filesystem::remove_all(dir);
  return r;
}

}  // namespace

int main() {
  const BenchEnv env = bench_env();
  const std::size_t ops_total = env.fast ? 50000 : 400000;

  const EngineEdgePool pool = engine_edge_pool(env);

  const int producers = 2;
  const std::vector<int> worker_counts =
      worker_sweep(std::min(env.max_workers, 4));
  const std::vector<Mode> modes{
      {"wal-off", false, false},
      {"wal-on", true, true},
      {"wal-nofsync", true, false},
  };

  ThreadTeam team(env.max_workers);
  const std::vector<std::vector<GraphUpdate>> streams =
      producer_update_streams(pool.edges, producers, ops_total);

  std::printf("== durability overhead: %s (n=%zu, base m=%zu, %zu ops) ==\n\n",
              pool.name.c_str(), pool.n, pool.base.size(), ops_total);

  Json rows = Json::array();
  Table table({"mode", "workers", "kups", "epochs", "p99 flush ms",
               "wal frames", "wal MB", "fsyncs", "ckpts"});

  for (const Mode& mode : modes) {
    for (int workers : worker_counts) {
      engine::StreamingEngine::Options opts;
      opts.workers = workers;
      opts.flush_threshold = 2048;
      opts.flush_interval_ms = 2.0;
      EngineCellResult r =
          run_mode_cell(mode, pool.n, pool.base, streams, team, opts);
      const auto& d = r.stats.durability;
      const double p99_ms =
          static_cast<double>(r.stats.flush_us.quantile_upper(0.99)) / 1000.0;
      table.add_row({mode.name, std::to_string(workers),
                     fmt(r.updates_per_sec / 1000.0, 1),
                     std::to_string(r.stats.epochs), fmt(p99_ms, 2),
                     std::to_string(d.wal_frames),
                     fmt(static_cast<double>(d.wal_bytes) / 1e6, 2),
                     std::to_string(d.wal_fsyncs),
                     std::to_string(d.checkpoints)});
      rows.push(Json::object()
                    .set("mode", mode.name)
                    .set("producers", producers)
                    .set("workers", workers)
                    .set("seconds", r.seconds)
                    .set("updates_per_sec", r.updates_per_sec)
                    .set("epochs", r.stats.epochs)
                    .set("p99_flush_ms", p99_ms)
                    .set("wal_us", r.stats.phases.wal_us)
                    .set("checkpoint_us", r.stats.phases.checkpoint_us)
                    .set("wal_frames", d.wal_frames)
                    .set("wal_bytes", d.wal_bytes)
                    .set("wal_fsyncs", d.wal_fsyncs)
                    .set("checkpoints", d.checkpoints));
    }
  }
  table.print();

  // The overhead pair CI gates on: one configuration, durability off vs
  // on (fsync included — the honest price), alternated best-of-3. The
  // pair keeps a floor on its op count even under PARCORE_BENCH_FAST:
  // the fixed initial/final checkpoint cost must amortize over the run
  // (at 50k ops it reads as ~20% "overhead"; at 400k the steady-state
  // WAL price dominates, which is what the gate is about).
  const std::size_t pair_ops = std::max<std::size_t>(ops_total, 400000);
  const std::vector<std::vector<GraphUpdate>> pair_streams =
      producer_update_streams(pool.edges, producers, pair_ops);
  double best_off = 0.0, best_on = 0.0;
  {
    engine::StreamingEngine::Options opts;
    opts.workers = std::min(env.max_workers, 4);
    opts.flush_threshold = 2048;
    opts.flush_interval_ms = 2.0;
    for (int rep = 0; rep < 3; ++rep) {
      best_off = std::max(
          best_off, run_mode_cell(modes[0], pool.n, pool.base,
                                  pair_streams, team, opts)
                        .updates_per_sec);
      best_on = std::max(
          best_on, run_mode_cell(modes[1], pool.n, pool.base,
                                 pair_streams, team, opts)
                       .updates_per_sec);
    }
  }
  const double overhead_pct =
      best_off > 0.0 ? 100.0 * (best_off - best_on) / best_off : 0.0;
  std::printf("\nwal overhead: off %.1f kups, on %.1f kups (%.2f%%)\n",
              best_off / 1000.0, best_on / 1000.0, overhead_pct);

  Json payload = Json::object()
                     .set("bench", "durability")
                     .set("graph", pool.name)
                     .set("n", std::uint64_t{pool.n})
                     .set("base_edges", std::uint64_t{pool.base.size()})
                     .set("ops_total", std::uint64_t{ops_total})
                     .set("scale", env.scale)
                     .set("wal_overhead",
                          Json::object()
                              .set("off_updates_per_sec", best_off)
                              .set("on_updates_per_sec", best_on)
                              .set("overhead_pct", overhead_pct))
                     .set("rows", rows);
  write_bench_json("durability", payload);
  return 0;
}
