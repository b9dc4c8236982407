// Streaming engine throughput: sustained updates/sec as a function of
// producer count x maintainer workers x batch policy, over a skewed
// (R-MAT) suite graph — or a real dataset when PARCORE_BENCH_INPUT
// names a file (loaded through src/io; see docs/FORMATS.md). Each cell
// runs the full pipeline — concurrent submit, coalesce, batched
// maintain, snapshot publish — and reports end-to-end throughput plus
// p50/p99 flush latency.
//
// Emits BENCH_engine.json (see harness.h: PARCORE_BENCH_JSON_DIR) so
// the perf trajectory is machine-readable across PRs. The measurement
// cell and JSON row schema live in the harness (run_engine_cell /
// engine_cell_json).
// The payload also carries an `obs_overhead` cell pair backing the
// <= 2% observability-overhead guard in CI: one representative
// configuration run without a span sink ("off") and with one that
// renders every flush span as a JSON line into memory ("on": serve's
// --trace-out work minus the file write), best of 3 each, alternating.
// The engine's own counts (EngineStats) are kept on both sides; the
// span sink is the one optional recording path.
#include <algorithm>
#include <cstdio>

#include "graph/edge_list.h"
#include "harness.h"
#include "io/graph_reader.h"
#include "obs/export.h"

using namespace parcore;
using namespace parcore::bench;

namespace {

struct Policy {
  const char* name;
  std::size_t threshold;
  bool adaptive;
};

}  // namespace

int main() {
  const BenchEnv env = bench_env();
  const std::size_t ops_total = env.fast ? 50000 : 400000;

  // Default workload: skewed power-law stand-in, the shape where
  // coalescing pays (hot edges are resubmitted and cancelled
  // constantly). PARCORE_BENCH_INPUT swaps in a real dataset.
  std::string graph_name;
  std::size_t num_vertices = 0;
  std::vector<Edge> all;
  if (!env.input.empty()) {
    io::GraphData data = io::read_graph(env.input);
    graph_name = env.input;
    num_vertices = data.num_vertices;
    all = io::static_edges(data);
  } else {
    SuiteSpec spec = scalability_suite().front();
    SuiteGraph sg = build_suite_graph(spec, env.scale);
    graph_name = spec.name;
    num_vertices = sg.num_vertices;
    all = sg.edges;
    for (const auto& te : sg.temporal) all.push_back(te.e);
    canonicalize_edges(all);
  }
  std::vector<Edge> base(all.begin(),
                         all.begin() + static_cast<std::ptrdiff_t>(
                                           all.size() / 2));

  const std::vector<int> producer_counts{1, 2, 4};
  std::vector<int> worker_counts = worker_sweep(std::min(env.max_workers, 8));
  const std::vector<Policy> policies{
      {"fixed-2k", 2048, false},
      {"fixed-16k", 16384, false},
      {"adaptive", 4096, true},
  };

  ThreadTeam team(env.max_workers);

  std::printf("== engine throughput: %s (n=%zu, base m=%zu, %zu ops) ==\n\n",
              graph_name.c_str(), num_vertices, base.size(), ops_total);

  Json rows = Json::array();
  Table table({"policy", "producers", "workers", "kups", "epochs",
               "p50 flush ms", "p99 flush ms", "coalesced"});

  for (const Policy& policy : policies) {
    for (int producers : producer_counts) {
      const std::vector<std::vector<GraphUpdate>> streams =
          producer_update_streams(all, producers, ops_total);
      for (int workers : worker_counts) {
        engine::StreamingEngine::Options opts;
        opts.workers = workers;
        opts.flush_threshold = policy.threshold;
        opts.adaptive = policy.adaptive;
        opts.flush_interval_ms = 2.0;
        EngineCellResult r =
            run_engine_cell(num_vertices, base, streams, team, opts);
        const double p50_ms =
            static_cast<double>(r.stats.flush_us.quantile_upper(0.5)) / 1000.0;
        const double p99_ms =
            static_cast<double>(r.stats.flush_us.quantile_upper(0.99)) / 1000.0;
        const std::uint64_t coalesced =
            2 * r.stats.coalesce.annihilated_pairs +
            r.stats.coalesce.duplicates + r.stats.coalesce.noops;
        table.add_row({policy.name, std::to_string(producers),
                       std::to_string(workers),
                       fmt(r.updates_per_sec / 1000.0, 1),
                       std::to_string(r.stats.epochs), fmt(p50_ms, 2),
                       fmt(p99_ms, 2), std::to_string(coalesced)});
        rows.push(engine_cell_json(policy.name, producers, workers, r));
      }
    }
  }
  table.print();

  // Observability overhead: same cell without and with a span sink,
  // alternated so machine drift hits both sides equally; best-of-3
  // damps scheduler noise. The sink renders each span as serve's
  // --trace-out does, into a string instead of a file.
  double best_off = 0.0, best_on = 0.0;
  {
    const std::vector<std::vector<GraphUpdate>> streams =
        producer_update_streams(all, 2, ops_total);
    engine::StreamingEngine::Options off;
    off.workers = std::min(env.max_workers, 4);
    off.flush_threshold = 2048;
    off.flush_interval_ms = 2.0;
    std::string trace_lines;
    engine::StreamingEngine::Options on = off;
    on.span_sink = [&trace_lines](const obs::FlushSpan& span) {
      trace_lines += obs::trace_json_line(span);
      trace_lines += '\n';
    };
    for (int rep = 0; rep < 3; ++rep) {
      best_off = std::max(
          best_off,
          run_engine_cell(num_vertices, base, streams, team, off)
              .updates_per_sec);
      trace_lines.clear();
      best_on = std::max(
          best_on,
          run_engine_cell(num_vertices, base, streams, team, on)
              .updates_per_sec);
    }
  }
  const double overhead_pct =
      best_off > 0.0 ? 100.0 * (best_off - best_on) / best_off : 0.0;
  std::printf("\nobs overhead: off %.1f kups, on %.1f kups (%.2f%%)\n",
              best_off / 1000.0, best_on / 1000.0, overhead_pct);

  Json payload = Json::object()
                     .set("bench", "engine_throughput")
                     .set("graph", graph_name)
                     .set("n", std::uint64_t{num_vertices})
                     .set("base_edges", std::uint64_t{base.size()})
                     .set("ops_total", std::uint64_t{ops_total})
                     .set("scale", env.scale)
                     .set("obs_overhead",
                          Json::object()
                              .set("off_updates_per_sec", best_off)
                              .set("on_updates_per_sec", best_on)
                              .set("overhead_pct", overhead_pct))
                     .set("rows", rows);
  write_bench_json("engine", payload);
  return 0;
}
