// Streaming server simulation: the engine serving interleaved
// update/query traffic — the ROADMAP north-star workload in miniature.
//
// Four producer threads churn insert/remove updates over a power-law
// suite graph (hot edges get resubmitted and cancelled, exercising the
// coalescer) while four query threads read core numbers and k-core
// membership from epoch snapshots. At the end the maintained state is
// verified against a fresh decomposition.
//
//   $ ./examples/streaming_server
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "decomp/verify.h"
#include "engine/engine.h"
#include "gen/suite.h"
#include "graph/edge_list.h"
#include "support/rng.h"
#include "support/timer.h"
#include "sync/thread_team.h"

using namespace parcore;

int main() {
  constexpr int kProducers = 4;
  constexpr int kQueriers = 4;
  constexpr std::size_t kOpsPerProducer = 100000;

  // A Table-2 stand-in graph (skewed R-MAT, "orkut" row) at small scale.
  SuiteSpec spec;
  for (const SuiteSpec& s : table2_suite())
    if (s.family == SuiteFamily::kRmat) spec = s;
  SuiteGraph sg = build_suite_graph(spec, 0.1);
  std::vector<Edge> all = sg.edges;
  canonicalize_edges(all);
  std::vector<Edge> base(all.begin(),
                         all.begin() + static_cast<std::ptrdiff_t>(
                                           all.size() / 2));
  DynamicGraph graph = DynamicGraph::from_edges(sg.num_vertices, base);
  std::printf("graph: %s stand-in, %zu vertices, %zu base edges\n",
              spec.name.c_str(), graph.num_vertices(), graph.num_edges());

  ThreadTeam team(8);
  engine::StreamingEngine::Options opts;
  opts.workers = 4;
  opts.flush_threshold = 4096;
  opts.flush_interval_ms = 2.0;
  opts.adaptive = true;
  opts.target_flush_ms = 5.0;
  engine::StreamingEngine eng(graph, team, opts);
  eng.start();
  std::printf("engine started: epoch %llu, max core %d\n",
              static_cast<unsigned long long>(eng.epoch()),
              eng.snapshot()->max_core);

  WallTimer timer;

  // Producers: disjoint slices of the edge pool, hot-set churn.
  std::vector<std::thread> producers;
  const std::size_t slice = all.size() / kProducers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(100 + static_cast<std::uint64_t>(p));
      std::span<const Edge> universe(
          all.data() + static_cast<std::size_t>(p) * slice, slice);
      auto stream =
          gen_update_stream(universe, kOpsPerProducer, 0.45, 0.6, rng);
      for (const GraphUpdate& u : stream) eng.submit(u);
    });
  }

  // Queriers: point reads + membership scans against live snapshots.
  std::atomic<bool> stop_queries{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> queriers;
  for (int q = 0; q < kQueriers; ++q) {
    queriers.emplace_back([&, q] {
      Rng rng(900 + static_cast<std::uint64_t>(q));
      std::uint64_t local = 0;
      while (!stop_queries.load(std::memory_order_relaxed)) {
        auto snap = eng.snapshot();
        const auto v =
            static_cast<VertexId>(rng.bounded(snap->num_vertices()));
        volatile CoreValue c = snap->core(v);
        (void)c;
        if (++local % 4096 == 0)  // occasional heavy query
          (void)snap->kcore_members(snap->max_core);
      }
      queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (auto& t : producers) t.join();
  eng.stop();
  stop_queries.store(true);
  for (auto& t : queriers) t.join();
  const double sec = timer.elapsed_ms() / 1000.0;

  const engine::EngineStats st = eng.stats();
  const auto snap = eng.snapshot();
  std::printf("\n-- served in %.2fs --\n", sec);
  std::printf("updates submitted   %llu (%.0f k/s)\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<double>(st.submitted) / sec / 1000.0);
  std::printf("queries served      %llu (%.0f k/s)\n",
              static_cast<unsigned long long>(queries.load()),
              static_cast<double>(queries.load()) / sec / 1000.0);
  std::printf("epochs (flushes)    %llu, final epoch %llu\n",
              static_cast<unsigned long long>(st.epochs),
              static_cast<unsigned long long>(snap->epoch));
  std::printf("applied             +%llu / -%llu edges\n",
              static_cast<unsigned long long>(st.applied_inserts),
              static_cast<unsigned long long>(st.applied_removes));
  std::printf("coalesced away      %llu pairs, %llu dups, %llu no-ops\n",
              static_cast<unsigned long long>(st.coalesce.annihilated_pairs),
              static_cast<unsigned long long>(st.coalesce.duplicates),
              static_cast<unsigned long long>(st.coalesce.noops));
  std::printf("flush latency       p50 %.2f ms, p99 %.2f ms\n",
              static_cast<double>(st.flush_us.quantile_upper(0.5)) / 1000.0,
              static_cast<double>(st.flush_us.quantile_upper(0.99)) / 1000.0);
  std::printf("final flush size    threshold %zu (adaptive)\n",
              eng.current_flush_threshold());
  std::printf("final graph         %zu edges, max core %d\n",
              graph.num_edges(), snap->max_core);

  std::string err;
  if (!verify_cores(graph, snap->materialize(), &err)) {
    std::printf("VERIFICATION FAILED: %s\n", err.c_str());
    return 1;
  }
  std::printf("verified: snapshot cores match a fresh decomposition\n");
  return 0;
}
