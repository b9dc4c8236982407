// stream-burst: the StreamingEngine over half of the RMAT stand-in's
// edges, fed mixed insert/remove updates drawn from all of them (half
// removes, 60% from a hot subset, gen_update_stream) in a closed loop.
//
// One producer thread submits, so the engine drains updates in submit
// order; the flush sizes its span sink records then cut the same
// sequence into the same batches for the layer replay.
#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "decomp/bz.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "obs/trace.h"
#include "replay.h"
#include "support/rng.h"
#include "sync/thread_team.h"
#include "workloads.h"

namespace e2e {

using namespace parcore;

namespace {

constexpr int kEngineWorkers = 2;  // the scheduler thread + one team worker
constexpr std::size_t kIngestCap = 65536;
// Half removes keep the graph at its starting size, half the universe:
// with fewer removes it grows for the whole run, so memory and per-update
// cost would track how many updates a run got through.
constexpr double kRemoveFraction = 0.5;
constexpr double kHotFraction = 0.6;
// The pre-generated stream is submitted cyclically.
constexpr std::size_t kStream = 4'000'000;
constexpr std::size_t kSmokeStream = 200'000;
// 5,000 latency samples per second; saturation is above 320k updates/s,
// so the rate, not the every-64th-submit clock read, sets the count.
constexpr std::int64_t kSamplePeriodNs = 200'000;
// The leading part of a run left out of its metrics: per-second
// throughput rose by up to a quarter over a run's first 5-7 s before it
// settled.
constexpr std::int64_t kMaxWarmupNs = 5'000'000'000;

// One completed flush as the engine's span sink saw it.
struct FlushRecord {
  std::int64_t t_ns;  // the sink runs after the new snapshot is visible
  std::uint64_t raw;
  std::uint64_t flush_us;
};

// Engine-side diagnostics; checks that the flushes drained exactly the
// accepted updates.
void report_flushes(const std::vector<FlushRecord>& flushes,
                    std::uint64_t accepted, Report& report) {
  std::vector<double> flush_ms;
  std::uint64_t drained = 0;
  for (const FlushRecord& f : flushes) {
    flush_ms.push_back(static_cast<double>(f.flush_us) / 1e3);
    drained += f.raw;
  }
  report.check(drained == accepted,
               "engine flushes drained " + std::to_string(drained) +
                   " updates, " + std::to_string(accepted) + " accepted");
  report.extra("engine.flushes", static_cast<double>(flushes.size()), "count");
  const auto count = std::max<std::size_t>(flushes.size(), 1);
  report.extra("engine.updates_per_flush",
               static_cast<double>(drained) / static_cast<double>(count),
               "count");
  report.extra("engine.flush_ms_p50", median(flush_ms), "ms");
  report.extra("engine.flush_ms_p99", percentile(flush_ms, 0.99), "ms");
}

}  // namespace

void run_stream_burst(const Config& cfg, Report& report, Spans& spans) {
  SuiteInput in = suite_input("RMAT", cfg.smoke ? 0.05 : 1.0, cfg.seed);
  const std::vector<Edge> base(
      in.edges.begin(),
      in.edges.begin() + static_cast<std::ptrdiff_t>(in.edges.size() / 2));
  Rng rng(cfg.seed ^ 0x6275727374ULL);
  const std::size_t len = cfg.smoke ? kSmokeStream : kStream;
  const std::vector<GraphUpdate> stream = gen_update_stream(
      in.edges, len, kRemoveFraction, kHotFraction, rng);

  std::vector<FlushRecord> flushes;
  flushes.reserve(1u << 16);
  engine::StreamingEngine::Options opts;
  opts.workers = kEngineWorkers;
  opts.ingest_cap = kIngestCap;
  opts.overload = engine::OverloadPolicy::kBlock;
  opts.span_sink = [&flushes](const obs::FlushSpan& s) {
    flushes.push_back(FlushRecord{now_ns(), s.raw, s.flush_us});
  };
  ThreadTeam team(kEngineWorkers);
  std::unique_ptr<DynamicGraph> graph;
  std::unique_ptr<engine::StreamingEngine> streaming;
  measure_setups(
      cfg, report, spans,
      [&](int) {
        streaming.reset();
        graph.reset();
      },
      [&] {
        graph = std::make_unique<DynamicGraph>(
            DynamicGraph::from_edges(in.n, base));
      },
      [&] {
        streaming =
            std::make_unique<engine::StreamingEngine>(*graph, team, opts);
      });
  engine::StreamingEngine& eng = *streaming;

  // One submit per kSamplePeriodNs is timed and followed to the flush
  // that publishes it. Sampling by time, not by count, keeps the sample
  // buffers' size, and so peak_rss_mb, from tracking throughput.
  struct Sample {
    std::int64_t due_ns;
    std::uint64_t index;
    bool remove;
  };
  const auto run_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
  const auto max_samples =
      static_cast<std::size_t>(run_ns / kSamplePeriodNs) + 1;
  std::vector<Sample> samples;
  std::vector<double> submit_ns;
  samples.reserve(max_samples);
  submit_ns.reserve(max_samples);
  std::uint64_t submitted = 0, shed = 0, blocked_us = 0;
  eng.start();
  const std::int64_t start = now_ns();
  const std::int64_t stop_at = start + run_ns;
  const std::int64_t warm_until = start + std::min(kMaxWarmupNs, run_ns / 4);
  std::int64_t next_sample = start;
  {
    Spans::Scope run(spans, "engine.run", 0, 0);
    for (;; ++submitted) {
      const GraphUpdate& u = stream[submitted % len];
      engine::SubmitResult r;
      std::int64_t t = 0;
      bool sample = false;
      if ((submitted & 63) == 0) {  // the clock is read this often
        t = now_ns();
        if (t >= stop_at) break;
        sample = t >= next_sample;
      }
      if (sample) {
        next_sample = t + kSamplePeriodNs;
        r = eng.submit(u);
        submit_ns.push_back(static_cast<double>(now_ns() - t));
        samples.push_back(Sample{t, submitted, u.kind == UpdateKind::kRemove});
      } else {
        r = eng.submit(u);
      }
      shed += r.accepted ? 0 : 1;
      blocked_us += r.blocked_us;
    }
    Spans::Scope stop(spans, "engine.stop", run.id(), 0);
    eng.stop();
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  report.ops(submitted, shed);
  report_flushes(flushes, submitted - shed, report);

  std::vector<std::uint64_t> drained(flushes.size());
  std::transform_inclusive_scan(
      flushes.begin(), flushes.end(), drained.begin(), std::plus<>(),
      [](const FlushRecord& f) { return f.raw; });
  std::vector<double> ins_ms, rem_ms, all_ms;
  for (const Sample& s : samples) {
    if (s.due_ns < warm_until) continue;
    const auto it = std::upper_bound(drained.begin(), drained.end(), s.index);
    const double ms =
        it == drained.end()
            ? std::numeric_limits<double>::infinity()
            : static_cast<double>(flushes[static_cast<std::size_t>(
                                      it - drained.begin())].t_ns -
                                  s.due_ns) / 1e6;
    (s.remove ? rem_ms : ins_ms).push_back(ms);
    all_ms.push_back(ms);
  }
  // Saturation throughput: updates published between the end of the
  // warm-up and the end of the submit phase, over that span.
  std::size_t first = 0, last = 0;
  for (std::size_t k = 0; k < flushes.size(); ++k) {
    if (flushes[k].t_ns < warm_until) first = k;
    if (flushes[k].t_ns <= stop_at) last = k;
  }
  double rate = std::numeric_limits<double>::quiet_NaN();
  if (last > first)
    rate = static_cast<double>(drained[last] - drained[first]) /
           (static_cast<double>(flushes[last].t_ns - flushes[first].t_ns) /
            1e9);
  report.e2e("updates_per_s", rate, "1/s");
  report.extra("updates_per_s_incl_drain",
               static_cast<double>(submitted) / wall_s, "1/s");
  report.e2e("insert_ms", median(ins_ms), "ms");
  report.e2e("remove_ms", median(rem_ms), "ms");
  report.extra("visible_p50_ms", median(all_ms), "ms");
  report.extra("visible_p90_ms", percentile(all_ms, 0.9), "ms");
  report.extra("visible_p99_ms", percentile(all_ms, 0.99), "ms");
  report.extra("ingest.blocked_frac",
               static_cast<double>(blocked_us) / 1e6 / wall_s, "fraction");
  report.extra("ingest.submit_ns_p50", median(submit_ns), "ns");
  report.extra("ingest.submit_ns_p99", percentile(submit_ns, 0.99), "ns");
  report.extra("submitted", static_cast<double>(submitted), "count");

  // The engine's final snapshot against a fresh decomposition; traced,
  // the drained sequence replayed through the layers must match it.
  const std::vector<CoreValue> served = eng.snapshot()->materialize();
  report.check(served == bz_decompose(eng.graph()).core,
               "stream: the engine's final snapshot differs from bz_decompose");
  if (!cfg.trace) return;
  ReplayPlan plan;
  plan.n = in.n;
  plan.base = base;
  std::size_t next = 0;
  plan.next = [&] { return stream[next++ % len]; };
  for (std::size_t k = 0; k < flushes.size(); ++k) {
    plan.cuts.push_back(flushes[k].raw);
    plan.workers.push_back(k % 2 == 0 ? kEngineWorkers : 1);
  }
  report.check(replay_layers(cfg, plan, team, report, spans) == served,
               "stream: replayed cores differ from the engine's final "
               "snapshot");
}

}  // namespace e2e
