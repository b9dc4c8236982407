// Bulk decomposition bench: sequential BZ vs the parallel exact peel,
// on the two shapes that bracket the cold-start cost model:
//
//   er  — large Erdős–Rényi graph; shallow core hierarchy, so the exact
//         peel runs few frontier rounds and the win is pure scan/decrement
//         parallelism. This is the headline cell: the committed baseline
//         must show parallel-exact beating BZ at >= 4 workers here.
//   hub — Barabási–Albert preferential attachment; skewed degrees, a
//         near-uniform core plateau, and hub-heavy decrement contention —
//         the adversarial shape for atomic peeling.
//
// Protocol: per (workload, algo, workers) cell the reps are INTERLEAVED
// across algos (bz, parallel, bz, ...) so machine-load drift
// hits every algo equally; medians drive the speedup summary. Emits
// BENCH_bulk_decompose.json with summary keys
// `<workload>_parallel_speedup_w<N>` (bz_median / parallel_median) that
// the CI perf gate checks.
//
// Honours PARCORE_BENCH_SCALE / _REPS / _FAST / _JSON_DIR.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "decomp/bz.h"
#include "decomp/parallel_peel.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "harness.h"

using namespace parcore;
using namespace parcore::bench;

namespace {

struct DecompWorkload {
  std::string name;
  std::size_t n = 0;
  DynamicGraph g;
};

struct Cell {
  std::string algo;        // "bz" | "parallel"
  int workers = 1;         // 1 for bz
  std::vector<double> ms;  // one sample per rep
  CoreValue max_core = 0;
  std::uint64_t rounds = 0;  // frontier sub-rounds
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main() {
  const BenchEnv env = bench_env();
  // Sized so the adjacency outgrows LLC even in FAST mode — in-cache
  // graphs flatter BZ (its pos/vert/bin side arrays stop costing) and
  // are not the regime the engine cold start and recovery verify run
  // in. FAST trims reps and the hub cell more than the headline ER one.
  const double scale = env.fast ? 0.6 : env.scale * 5.0;
  const auto er_n = static_cast<std::size_t>(200000 * scale) + 1000;
  const std::size_t er_m = er_n * 10;
  const auto ba_n = static_cast<std::size_t>(120000 * scale) + 1000;
  const std::size_t ba_k = 12;
  const int reps = env.fast ? 3 : (env.reps > 1 ? env.reps : 5);
  const std::vector<int> worker_counts{1, 2, 4, 8};

  std::vector<DecompWorkload> workloads;
  {
    Rng rng(0x5eedb01);
    DecompWorkload er;
    er.name = "er";
    er.n = er_n;
    er.g = DynamicGraph::from_edges(er_n, gen_erdos_renyi(er_n, er_m, rng));
    workloads.push_back(std::move(er));
    DecompWorkload hub;
    hub.name = "hub";
    hub.n = ba_n;
    hub.g = DynamicGraph::from_edges(ba_n,
                                     gen_barabasi_albert(ba_n, ba_k, rng));
    workloads.push_back(std::move(hub));
  }

  ThreadTeam team(8);
  std::printf("== bulk decomposition: bz vs parallel exact "
              "(er n=%zu m=%zu, hub n=%zu k=%zu, %d reps) ==\n\n",
              er_n, workloads[0].g.num_edges(), ba_n, ba_k, reps);

  Json rows = Json::array();
  Json summary = Json::object();
  Table table({"workload", "algo", "workers", "decompose ms", "max core",
               "rounds", "speedup vs bz"});

  for (const DecompWorkload& w : workloads) {
    // One cell list per workload: bz + parallel per worker count.
    std::vector<Cell> cells;
    cells.push_back(Cell{"bz", 1, {}, 0, 0});
    for (int workers : worker_counts)
      cells.push_back(Cell{"parallel", workers, {}, 0, 0});

    for (int rep = 0; rep < reps; ++rep) {
      for (Cell& c : cells) {
        WallTimer t;
        if (c.algo == "bz") {
          const Decomposition d = bz_decompose(w.g);
          c.ms.push_back(t.elapsed_ms());
          c.max_core = d.max_core;
          c.rounds = 0;
        } else {
          const BulkDecomposition bd =
              parallel_decompose(w.g, team, c.workers);
          c.ms.push_back(t.elapsed_ms());
          c.max_core = bd.max_core;
          c.rounds = bd.rounds;
        }
      }
    }

    const double bz_median = median_of(cells[0].ms);
    for (const Cell& c : cells) {
      const double med = median_of(c.ms);
      const double speedup = bz_median / std::max(med, 1e-9);
      table.add_row({w.name, c.algo, std::to_string(c.workers), fmt(med, 2),
                     std::to_string(c.max_core),
                     std::to_string(std::uint64_t{c.rounds}),
                     c.algo == "bz" ? "-" : fmt(speedup, 2)});
      rows.push(Json::object()
                    .set("workload", w.name)
                    .set("algo", c.algo)
                    .set("workers", c.workers)
                    .set("decompose_ms", med)
                    .set("max_core", static_cast<int>(c.max_core))
                    .set("rounds", std::uint64_t{c.rounds}));
      if (c.algo == "parallel")
        summary.set(w.name + "_parallel_speedup_w" + std::to_string(c.workers),
                    speedup);
    }
    std::fflush(stdout);
  }
  table.print();

  Json payload = Json::object()
                     .set("bench", "bulk_decompose")
                     .set("er_n", std::uint64_t{er_n})
                     .set("er_edges", std::uint64_t{workloads[0].g.num_edges()})
                     .set("hub_n", std::uint64_t{ba_n})
                     .set("hub_edges",
                          std::uint64_t{workloads[1].g.num_edges()})
                     .set("reps", reps)
                     .set("scale", scale)
                     .set("rows", rows)
                     .set("summary", summary);
  write_bench_json("bulk_decompose", payload);
  return 0;
}
