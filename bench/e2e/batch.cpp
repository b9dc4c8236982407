// batch-ba / batch-rmat: the paper's protocol (§6). A uniform batch of
// edges is split off a Table-2 stand-in graph; each rep inserts it with
// OurI and removes it again with OurR, both at kWorkers workers.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "decomp/bz.h"
#include "gen/suite.h"
#include "graph/dynamic_graph.h"
#include "graph/edge_list.h"
#include "parallel/parallel_order.h"
#include "replay.h"
#include "support/rng.h"
#include "sync/thread_team.h"
#include "workloads.h"

namespace e2e {

using namespace parcore;

namespace {

constexpr int kWorkers = 4;
constexpr std::size_t kBatch = 100'000;  // the paper's batch size
constexpr std::size_t kSmokeBatch = 2'000;
constexpr std::size_t kMinReps = 3;
constexpr std::int64_t kWarmupNs = 1'500'000'000;
// Quiescent OM compaction between reps, as the engine compacts between
// flushes. Without it quarantined OM groups pile up (~0.17 MB per BA
// rep), so peak RSS would grow with the rep count, i.e. with speed.
constexpr std::uint64_t kCompactEveryReps = 8;
// Replay passes over (insert batch, remove batch): one warm-up pass,
// then kWorkers and one worker alternately.
constexpr int kReplayPasses = 5;

}  // namespace

SuiteInput suite_input(const char* name, double scale, std::uint64_t seed) {
  for (const SuiteSpec& spec : table2_suite()) {
    if (spec.name != name) continue;
    SuiteGraph sg = build_suite_graph(spec, scale);
    SuiteInput in;
    in.n = sg.num_vertices;
    in.edges = std::move(sg.edges);
    canonicalize_edges(in.edges);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    rng.shuffle(in.edges);
    return in;
  }
  throw std::runtime_error(std::string("unknown suite graph ") + name);
}

void run_batch(const Config& cfg, const char* graph, Report& report,
               Spans& spans) {
  const SuiteInput in = suite_input(graph, cfg.smoke ? 0.05 : 1.0, cfg.seed);
  const std::size_t bsize =
      std::min(cfg.smoke ? kSmokeBatch : kBatch, in.edges.size() / 2);
  const std::span<const Edge> batch(in.edges.data(), bsize);
  const std::span<const Edge> base(in.edges.data() + bsize,
                                   in.edges.size() - bsize);

  ThreadTeam team(kWorkers);
  std::unique_ptr<DynamicGraph> g;
  std::unique_ptr<ParallelOrderMaintainer> m;
  measure_setups(
      cfg, report, spans,
      [&](int) {
        m.reset();
        g.reset();
      },
      [&] {
        g = std::make_unique<DynamicGraph>(
            DynamicGraph::from_edges(in.n, base));
      },
      [&] { m = std::make_unique<ParallelOrderMaintainer>(*g, team); });

  // Untimed warm-up pairs: the first reps after construction ran up to
  // 2x their median.
  const std::int64_t warm_until =
      now_ns() +
      std::min(kWarmupNs, static_cast<std::int64_t>(cfg.seconds * 1e8));
  do {
    m->insert_batch(batch, kWorkers);
    m->remove_batch(batch, kWorkers);
  } while (now_ns() < warm_until);

  std::vector<double> ins_ms, rem_ms;
  std::uint64_t failed = 0;
  const std::int64_t stop_at =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (std::uint64_t rep = 1; ins_ms.size() < kMinReps || now_ns() < stop_at;
       ++rep) {
    Spans::Scope scope(spans, "rep", 0, rep);
    BatchResult ri, rr;
    ins_ms.push_back(timed(spans, "parallel.insert", scope.id(), rep, [&] {
                       ri = m->insert_batch(batch, kWorkers);
                     }) / 1e6);
    rem_ms.push_back(timed(spans, "parallel.remove", scope.id(), rep, [&] {
                       rr = m->remove_batch(batch, kWorkers);
                     }) / 1e6);
    failed += (bsize - ri.applied) + (bsize - rr.applied);
    if (rep % kCompactEveryReps == 0) m->state().levels().compact_all();
  }
  report.ops(2 * bsize * ins_ms.size(), failed);

  const std::vector<CoreValue> truth = bz_decompose(*g).core;
  report.check(m->cores() == truth,
               "batch: maintained cores differ from bz_decompose");
  report.check(g->num_edges() == base.size(),
               "batch: graph did not return to the base edge set");

  // Every edge of a batch becomes visible when its call returns, so a
  // call's wall time is the visibility latency of each of its edges.
  const double ins = median(ins_ms);
  const double rem = median(rem_ms);
  std::vector<double> calls = ins_ms;
  calls.insert(calls.end(), rem_ms.begin(), rem_ms.end());
  report.e2e("updates_per_s",
             2.0 * static_cast<double>(bsize) / ((ins + rem) / 1e3), "1/s");
  report.e2e("insert_ms", ins, "ms");
  report.e2e("remove_ms", rem, "ms");
  report.extra("visible_p90_ms", percentile(calls, 0.9), "ms");
  report.extra("visible_p99_ms", percentile(calls, 0.99), "ms");
  report.extra("reps", static_cast<double>(ins_ms.size()), "count");

  if (!cfg.trace) return;
  ReplayPlan plan;
  plan.n = in.n;
  plan.base = base;
  std::size_t next = 0;
  plan.next = [&] {
    const std::size_t j = next++ % (2 * bsize);
    return j < bsize ? GraphUpdate{batch[j], UpdateKind::kInsert}
                     : GraphUpdate{batch[j - bsize], UpdateKind::kRemove};
  };
  plan.warmup = 2;
  for (int p = 0; p < kReplayPasses; ++p) {
    const int workers = p % 2 == 0 ? kWorkers : 1;
    plan.cuts.insert(plan.cuts.end(), {bsize, bsize});
    plan.workers.insert(plan.workers.end(), {workers, workers});
  }
  report.check(replay_layers(cfg, plan, team, report, spans) == truth,
               "batch: replayed cores differ from bz_decompose");
}

}  // namespace e2e
