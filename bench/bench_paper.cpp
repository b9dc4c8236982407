// The paper's evaluation in one run, written to BENCH_paper.json:
//
//   rows     Fig. 4: OurI/OurR and JEI/JER at every worker_sweep point,
//            SeqI/SeqR (the sequential Order algorithm) at one worker,
//            per Table-2 stand-in (or the PARCORE_BENCH_INPUT dataset)
//   table2   each graph's n, m, average degree and max k beside the
//            paper's values; max k comes from the timed maintainer
//   fig1     |V+| (insert) and |V*| (remove) sizes from the Our run at
//            max workers
//   fig5     time ratio as the batch grows 1x..10x, at max workers
//   fig6     spread over disjoint batch groups, at max workers
//   summary  Table 3, derived from the rows: self-speedups 1 -> max
//            workers, Our over JE at 1 and max workers, Our over Seq
//
// Every cell is timed once by the harness's checked timer (time_cell):
// after each insert+remove the maintainer's cores and edge count must
// equal the base graph's, or the bench reports the cell on stderr and
// exits 1. Figs. 5 and 6 run over scalability_suite().
#include <bit>
#include <cstdio>
#include <map>
#include <thread>

#include "harness.h"

using namespace parcore;
using namespace parcore::bench;

namespace {

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// ops, mean, max, the fraction <= 10 (paper: > 97%) and power-of-two
/// buckets 0, 1, 2-3, 4-7, ... of one size histogram.
Json sizes_json(const SizeHistogram& h) {
  std::vector<std::uint64_t> counts;
  for (std::size_t v = 0; v <= h.max_seen(); ++v) {
    const std::size_t b = std::bit_width(v);
    if (b >= counts.size()) counts.resize(b + 1, 0);
    counts[b] += h.count_at(v);
  }
  Json buckets = Json::array();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    buckets.push(Json::object()
                     .set("lo", std::uint64_t{b == 0 ? 0 : 1ULL << (b - 1)})
                     .set("hi", std::uint64_t{(1ULL << b) - 1})
                     .set("count", counts[b]));
  }
  return Json::object()
      .set("ops", h.total())
      .set("mean", h.mean())
      .set("max", std::uint64_t{h.max_seen()})
      .set("frac_le10", h.fraction_at_most(10))
      .set("beyond_exact", h.overflow())
      .set("buckets", buckets);
}

}  // namespace

int main() {
  const BenchEnv env = bench_env();
  ThreadTeam team(env.max_workers);
  const std::vector<int> sweep = worker_sweep(env.max_workers);
  const int hi = sweep.back();
  const std::string top = std::to_string(hi);
  WallTimer wall;

  bool ok = true;
  auto timed = [&](const PreparedWorkload& w, const CellSpec& spec) {
    TimedCell r = time_cell(w, team, spec);
    if (!r.mismatch.empty()) {
      std::fprintf(stderr, "MISMATCH %s %s w=%d: %s\n", w.spec.name.c_str(),
                   algo_name(spec.algo), spec.workers, r.mismatch.c_str());
      ok = false;
    }
    return r;
  };

  Json rows = Json::array(), table2 = Json::array(), fig1 = Json::array(),
       per_graph = Json::array();
  SizeHistogram all_vplus, all_vstar;
  double best_insert = 0.0, best_remove = 0.0;
  Table table({"graph", "OurI 1v" + top, "OurR 1v" + top, "JEI 1v" + top,
               "JER 1v" + top, "OurI/JEI @1", "OurR/JER @1",
               "OurI/JEI @" + top, "OurR/JER @" + top, "OurI/SeqI @1",
               "OurR/SeqR @1"});

  for (const PreparedWorkload& w :
       suite_or_file_workloads(table2_suite(), env)) {
    std::map<std::pair<Algo, int>, TimedCell> cells;
    auto run = [&](Algo algo, int workers) {
      TimedCell r = timed(w, {.algo = algo,
                              .workers = workers,
                              .reps = env.reps,
                              .collect_stats = algo == Algo::kOur &&
                                               workers == hi});
      rows.push(Json::object()
                    .set("workload", w.spec.name)
                    .set("algo", algo_name(algo))
                    .set("workers", workers)
                    .set("batch", std::uint64_t{w.batch.size()})
                    .set("insert_ms", r.insert_ms.mean)
                    .set("remove_ms", r.remove_ms.mean));
      cells[{algo, workers}] = std::move(r);
    };
    for (int workers : sweep) {
      run(Algo::kOur, workers);
      run(Algo::kJe, workers);
    }
    run(Algo::kSeq, 1);

    const TimedCell& our1 = cells[{Algo::kOur, 1}];
    const TimedCell& ourN = cells[{Algo::kOur, hi}];
    const TimedCell& je1 = cells[{Algo::kJe, 1}];
    const TimedCell& jeN = cells[{Algo::kJe, hi}];
    const TimedCell& seq = cells[{Algo::kSeq, 1}];

    const std::size_t m = w.base_edges.size() + w.batch.size();
    table2.push(Json::object()
                    .set("workload", w.spec.name)
                    .set("n", std::uint64_t{w.n})
                    .set("m", std::uint64_t{m})
                    .set("avg_degree", ratio(static_cast<double>(m),
                                             static_cast<double>(w.n)))
                    .set("max_k", static_cast<int>(seq.max_core))
                    .set("paper_n", std::uint64_t{w.spec.paper_n})
                    .set("paper_m", std::uint64_t{w.spec.paper_m})
                    .set("paper_avg_degree", w.spec.paper_avgdeg)
                    .set("paper_max_k", w.spec.paper_maxk));

    all_vplus.merge(*ourN.vplus);
    all_vstar.merge(*ourN.vstar);
    fig1.push(Json::object()
                  .set("workload", w.spec.name)
                  .set("vplus", sizes_json(*ourN.vplus))
                  .set("vstar", sizes_json(*ourN.vstar)));

    const double vals[] = {
        ratio(our1.insert_ms.mean, ourN.insert_ms.mean),
        ratio(our1.remove_ms.mean, ourN.remove_ms.mean),
        ratio(je1.insert_ms.mean, jeN.insert_ms.mean),
        ratio(je1.remove_ms.mean, jeN.remove_ms.mean),
        ratio(je1.insert_ms.mean, our1.insert_ms.mean),
        ratio(je1.remove_ms.mean, our1.remove_ms.mean),
        ratio(jeN.insert_ms.mean, ourN.insert_ms.mean),
        ratio(jeN.remove_ms.mean, ourN.remove_ms.mean),
        ratio(seq.insert_ms.mean, our1.insert_ms.mean),
        ratio(seq.remove_ms.mean, our1.remove_ms.mean)};
    const char* keys[] = {
        "our_insert_self_speedup", "our_remove_self_speedup",
        "je_insert_self_speedup",  "je_remove_self_speedup",
        "our_over_je_insert_w1",   "our_over_je_remove_w1",
        "our_over_je_insert_max",  "our_over_je_remove_max",
        "our_over_seq_insert_w1",  "our_over_seq_remove_w1"};
    Json entry = Json::object().set("workload", w.spec.name);
    std::vector<std::string> cols{w.spec.name};
    for (std::size_t i = 0; i < std::size(vals); ++i) {
      entry.set(keys[i], vals[i]);
      cols.push_back(fmt(vals[i]));
    }
    per_graph.push(entry);
    table.add_row(cols);
    best_insert = std::max(best_insert, vals[6]);
    best_remove = std::max(best_remove, vals[7]);
  }

  // Fig. 5: batch x1..x10 at max workers, ratios to each algo's x1 time.
  Json fig5 = Json::array();
  for (const SuiteSpec& spec : scalability_suite()) {
    std::map<Algo, TimedCell> base;
    for (std::size_t mult : {1, 2, 4, 7, 10}) {
      const PreparedWorkload w =
          prepare_workload(spec, env.scale, env.batch * mult);
      for (Algo algo : {Algo::kOur, Algo::kJe}) {
        TimedCell r =
            timed(w, {.algo = algo, .workers = hi, .reps = env.reps});
        if (mult == 1) base[algo] = r;
        fig5.push(Json::object()
                      .set("workload", spec.name)
                      .set("algo", algo_name(algo))
                      .set("multiplier", std::uint64_t{mult})
                      .set("batch", std::uint64_t{w.batch.size()})
                      .set("insert_ms", r.insert_ms.mean)
                      .set("remove_ms", r.remove_ms.mean)
                      .set("insert_ratio", ratio(r.insert_ms.mean,
                                                 base[algo].insert_ms.mean))
                      .set("remove_ratio", ratio(r.remove_ms.mean,
                                                 base[algo].remove_ms.mean)));
      }
    }
  }

  // Fig. 6: disjoint groups of one pooled batch on one maintainer
  // (paper: 50 groups of 100k edges), at max workers.
  const std::size_t groups = env.fast ? 4 : 10;
  Json fig6 = Json::array();
  for (const SuiteSpec& spec : scalability_suite()) {
    const PreparedWorkload pool =
        prepare_workload(spec, env.scale, env.batch * groups);
    for (Algo algo : {Algo::kOur, Algo::kJe}) {
      const TimedCell r = timed(
          pool, {.algo = algo, .workers = hi, .reps = 1, .groups = groups});
      auto cv = [](const RunStats& s) {
        return 100.0 * ratio(s.stdev, s.mean);
      };
      fig6.push(Json::object()
                    .set("workload", spec.name)
                    .set("algo", algo_name(algo))
                    .set("groups", std::uint64_t{groups})
                    .set("insert_cv_pct", cv(r.insert_ms))
                    .set("remove_cv_pct", cv(r.remove_ms))
                    .set("insert_max_over_min",
                         ratio(r.insert_ms.max, r.insert_ms.min))
                    .set("remove_max_over_min",
                         ratio(r.remove_ms.max, r.remove_ms.min)));
    }
  }

  std::printf("== Table 3: speedups, 1 vs %d workers (scale %.2f, batch ~%zu, "
              "reps %d) ==\n\n",
              hi, env.scale, env.batch, env.reps);
  table.print();
  std::printf("\nBest OurI/JEI at %d workers: %.1fx (paper: up to 289x on BA); "
              "best OurR/JER: %.1fx (paper: up to 10.6x)\n",
              hi, best_insert, best_remove);

  Json payload =
      Json::object()
          .set("bench", "paper")
          .set("input", env.input.empty() ? "synthetic" : env.input)
          .set("scale", env.scale)
          .set("batch", std::uint64_t{env.batch})
          .set("reps", env.reps)
          .set("max_workers", hi)
          .set("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()))
          .set("wall_s", wall.elapsed_ms() / 1000.0)
          .set("rows", rows)
          .set("table2", table2)
          .set("fig1",
               Json::object()
                   .set("workers", hi)
                   .set("graphs", fig1)
                   .set("all", Json::object()
                                   .set("vplus", sizes_json(all_vplus))
                                   .set("vstar", sizes_json(all_vstar))))
          .set("fig5", fig5)
          .set("fig6", fig6)
          .set("summary", Json::object()
                              .set("max_workers", hi)
                              .set("best_our_over_je_insert_max", best_insert)
                              .set("best_our_over_je_remove_max", best_remove)
                              .set("graphs", per_graph));
  const bool wrote = !write_bench_json("paper", payload).empty();
  return ok && wrote ? 0 : 1;
}
