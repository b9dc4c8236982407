// Overload admission control: the engine cell from
// bench_engine_throughput measured with a bounded ingest queue across
// the three overload policies (docs/ROBUSTNESS.md), at a cap tight
// enough that producers actually hit it:
//
//   block    producer backpressure (bounded waits on drain)
//   shed     newest-op rejection; offered vs accepted throughput split
//   degrade  per-shard last-op-wins compaction, then admit
//
// plus an `admission_overhead` cell pair — cap off vs a cap high
// enough to never fire (the pure cost of the admission check on the
// submit hot path), alternated best-of-3 so machine drift hits both
// sides equally — backing the <= 2% admission-overhead guard in CI.
// Emits BENCH_overload.json; rows carry the admission counters so the
// trajectory shows how much each policy shed/blocked/compacted, not
// just the throughput it reached.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "graph/edge_list.h"
#include "harness.h"
#include "io/graph_reader.h"

using namespace parcore;
using namespace parcore::bench;

namespace {

struct Mode {
  const char* name;
  engine::OverloadPolicy policy;
};

}  // namespace

int main() {
  const BenchEnv env = bench_env();
  const std::size_t ops_total = env.fast ? 50000 : 400000;

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

  const int producers = 4;
  const int workers = std::min(env.max_workers, 4);
  // Tight enough that 4 producers outrun the flush pipeline and the
  // policies actually engage; the unbounded row is the reference.
  const std::vector<std::size_t> caps{1024, 4096};
  const std::vector<Mode> modes{
      {"block", engine::OverloadPolicy::kBlock},
      {"shed", engine::OverloadPolicy::kShed},
      {"degrade", engine::OverloadPolicy::kDegrade},
  };

  ThreadTeam team(std::max(env.max_workers, producers));
  const std::vector<std::vector<GraphUpdate>> streams =
      producer_update_streams(all, producers, ops_total);

  std::printf(
      "== overload admission: %s (n=%zu, base m=%zu, %zu ops) ==\n\n",
      graph_name.c_str(), num_vertices, base.size(), ops_total);

  Json rows = Json::array();
  Table table({"mode", "cap", "kups", "epochs", "p99 flush ms", "shed",
               "blocked ms", "compacted", "ovl flushes"});

  auto run_cell = [&](const char* name, engine::OverloadPolicy policy,
                      std::size_t cap) {
    engine::StreamingEngine::Options opts;
    opts.workers = workers;
    opts.flush_threshold = 2048;
    opts.flush_interval_ms = 2.0;
    opts.ingest_cap = cap;
    opts.overload = policy;
    EngineCellResult r = run_engine_cell(num_vertices, base, streams, team,
                                         opts);
    const auto& adm = r.stats.admission;
    const double p99_ms =
        static_cast<double>(r.stats.flush_us.quantile_upper(0.99)) / 1000.0;
    table.add_row({name, std::to_string(cap),
                   fmt(r.updates_per_sec / 1000.0, 1),
                   std::to_string(r.stats.epochs), fmt(p99_ms, 2),
                   std::to_string(adm.shed),
                   fmt(static_cast<double>(adm.blocked_us) / 1000.0, 1),
                   std::to_string(adm.compacted),
                   std::to_string(r.stats.overload_flushes)});
    rows.push(Json::object()
                  .set("mode", name)
                  .set("cap", std::uint64_t{cap})
                  .set("producers", producers)
                  .set("workers", workers)
                  .set("seconds", r.seconds)
                  .set("updates_per_sec", r.updates_per_sec)
                  .set("epochs", r.stats.epochs)
                  .set("p99_flush_ms", p99_ms)
                  .set("shed", adm.shed)
                  .set("block_waits", adm.block_waits)
                  .set("blocked_us", adm.blocked_us)
                  .set("compacted", adm.compacted)
                  .set("overload_flushes", r.stats.overload_flushes));
    return r;
  };

  run_cell("unbounded", engine::OverloadPolicy::kBlock, 0);
  for (const Mode& mode : modes)
    for (std::size_t cap : caps) run_cell(mode.name, mode.policy, cap);
  table.print();

  // The overhead pair CI gates on: cap off (no admission checks at
  // all) vs a cap that never fires (1<<30 — unreachable by
  // construction, so the pair isolates the admission check's hot-path
  // price from any actual throttling).
  //
  // Estimator: one producer submits to a live engine in 1024-op
  // blocks; a cell's score is the MINIMUM ns/submit over all blocks,
  // and each side takes the minimum over 5 alternated cells. Peak
  // submit cost is the right statistic here: every block runs the same
  // instruction stream, so the fastest block is the one that dodged
  // flush drains, cross-core interference, and frequency dips —
  // exactly the non-admission noise a wall-clock mean drags in. Two
  // earlier designs measured contended multi-producer throughput
  // (whole-engine, then queue-only) and both swung +-10% run-to-run on
  // shared hardware, flaking a <=2% gate around a true cost of one
  // register compare (~0.3%).
  const std::size_t pair_ops = std::max<std::size_t>(ops_total, 2000000);
  const std::vector<GraphUpdate> pair_stream =
      producer_update_streams(all, 1, pair_ops).front();
  constexpr std::size_t kPairBlock = 1024;
  auto submit_cell_min_ns = [&](std::size_t cap) {
    DynamicGraph g = DynamicGraph::from_edges(num_vertices, base);
    engine::StreamingEngine::Options opts;
    opts.workers = workers;
    opts.flush_threshold = 2048;
    opts.flush_interval_ms = 2.0;
    opts.ingest_cap = cap;
    engine::StreamingEngine eng(g, team, opts);
    eng.start();
    double best = 1e18;
    for (std::size_t b = 0; b + kPairBlock <= pair_stream.size();
         b += kPairBlock) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = b; i < b + kPairBlock; ++i)
        eng.submit(pair_stream[i]);
      const double dt = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      best = std::min(best, dt);
    }
    eng.stop();
    return best / static_cast<double>(kPairBlock);
  };
  submit_cell_min_ns(0);  // warm-up: page in the stream, settle the team
  double off_ns = 1e18, on_ns = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    off_ns = std::min(off_ns, submit_cell_min_ns(0));
    on_ns = std::min(on_ns, submit_cell_min_ns(std::size_t{1} << 30));
  }
  // Reported as peak submit rates so the JSON keeps rate semantics.
  const double best_off = 1e9 / off_ns;
  const double best_on = 1e9 / on_ns;
  const double overhead_pct = 100.0 * (on_ns - off_ns) / off_ns;
  std::printf(
      "\nadmission overhead (peak submit path, 1 producer): "
      "off %.2f ns/op, on %.2f ns/op (%.2f%%)\n",
      off_ns, on_ns, overhead_pct);


  Json payload = Json::object()
                     .set("bench", "overload")
                     .set("graph", graph_name)
                     .set("n", std::uint64_t{num_vertices})
                     .set("base_edges", std::uint64_t{base.size()})
                     .set("ops_total", std::uint64_t{ops_total})
                     .set("scale", env.scale)
                     .set("admission_overhead",
                          Json::object()
                              .set("off_updates_per_sec", best_off)
                              .set("on_updates_per_sec", best_on)
                              .set("overhead_pct", overhead_pct))
                     .set("rows", rows);
  write_bench_json("overload", payload);
  return 0;
}
