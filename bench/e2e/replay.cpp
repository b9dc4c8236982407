#include "replay.h"

#include <limits>
#include <memory>
#include <string>

#include "durability/manager.h"
#include "engine/coalesce.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "graph/dynamic_graph.h"
#include "io/pcg.h"
#include "maint/seq_order.h"
#include "parallel/parallel_order.h"
#include "query/versioned_cores.h"
#include "support/rng.h"

namespace e2e {

using namespace parcore;

namespace {

// Point reads timed against each published view.
constexpr std::size_t kPointReads = 256;
constexpr std::size_t kPointPool = 4096;

volatile CoreValue g_read_sink = 0;

std::uint64_t relabel_total(CoreState& s) {
  LevelDirectory& levels = s.levels();
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < levels.capacity(); ++k)
    if (const OrderList* list = levels.get(static_cast<CoreValue>(k)))
      total += list->relabel_count();
  return total;
}

// The engine's checkpoint image (StreamingEngine::make_checkpoint).
io::PcgCheckpoint checkpoint_image(const DynamicGraph& g, const CoreState& s,
                                   std::uint64_t epoch) {
  io::PcgCheckpoint ck;
  ck.epoch = epoch;
  ck.num_vertices = g.num_vertices();
  ck.edges = g.edges();
  SavedCoreOrder saved = s.save_order();
  ck.core = std::move(saved.core);
  ck.order = std::move(saved.order);
  return ck;
}

double ratio(double num, double den) {
  return den > 0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

// One maintainer direction at one worker class, summed over flushes.
struct ApplyTotals {
  double ns = 0;
  double edges = 0;
  double busy_us = 0;
  double capacity_us = 0;  // workers x dispatch wall

  void add(double call_ns, std::size_t n,
           const ParallelOrderMaintainer::BatchTiming& t) {
    ns += call_ns;
    edges += static_cast<double>(n);
    busy_us += static_cast<double>(t.busy_us);
    capacity_us += static_cast<double>(t.workers) *
                   static_cast<double>(t.dispatch_us);
  }
  double ns_per_edge() const { return ratio(ns, edges); }
  double busy_frac() const { return ratio(busy_us, capacity_us); }
};

// Everything the replay sums or samples, reset after the warm-up flushes.
struct Totals {
  ApplyTotals ins_multi, rem_multi, ins_one, rem_one;
  double seq_ins_ns = 0, seq_ins_edges = 0, seq_rem_ns = 0, seq_rem_edges = 0;
  double push_ns = 0, coalesce_ns = 0, raw = 0, survivors = 0;
  double applied = 0, pages = 0, flushes = 0, relabels = 0, wal_bytes = 0;
  std::vector<double> drain_us, wal_us, publish_us, point_ns, checkpoint_ms;
};

}  // namespace

std::vector<CoreValue> replay_layers(const Config& cfg, const ReplayPlan& plan,
                                     ThreadTeam& team, Report& report,
                                     Spans& spans) {
  DynamicGraph g = DynamicGraph::from_edges(plan.n, plan.base);
  DynamicGraph seq_graph = DynamicGraph::from_edges(plan.n, plan.base);
  ParallelOrderMaintainer::Options mopts;
  mopts.collect_stats = true;  // Fig. 1 |V+| / |V*| histograms
  ParallelOrderMaintainer m(g, team, mopts);
  SeqOrderMaintainer seq(seq_graph);
  engine::IngestQueue queue;
  query::VersionedCoreIndex index;
  index.rebuild(plan.n, [&](VertexId v) { return m.core(v); });

  const std::string wal_dir = cfg.scratch_dir + "/replay-durability";
  remove_tree(wal_dir);
  durability::Manager::Options dopts;
  dopts.dir = wal_dir;
  auto wal = std::make_unique<durability::Manager>(dopts);
  auto checkpoint_ms = [&](std::uint64_t parent, std::uint64_t epoch) {
    return timed(spans, "durability.checkpoint", parent, epoch, [&] {
             wal->checkpoint(checkpoint_image(g, m.state(), epoch));
           }) / 1e6;
  };
  const double initial_checkpoint_ms = checkpoint_ms(0, 0);

  Rng rng(cfg.seed ^ 0x7265706c6179ULL);
  std::vector<VertexId> point_ids(kPointPool);
  for (VertexId& v : point_ids)
    v = static_cast<VertexId>(rng.bounded(plan.n));

  bool control_on = true;
  double control_ns = 0;
  auto check_control = [&] {
    report.check(seq.cores() == m.cores(),
                 "replay: sequential control disagrees with the parallel "
                 "maintainer");
  };

  Totals t;
  std::vector<GraphUpdate> pending, raw;
  std::vector<VertexId> dirty;
  std::size_t since_compact = 0;
  // The engine's OM compaction cadence, as the workloads' engines run it.
  const std::size_t compact_interval =
      engine::StreamingEngine::Options{}.om_compact_interval;

  for (std::size_t k = 0; k < plan.cuts.size(); ++k) {
    if (k == plan.warmup) {
      t = Totals{};
      t.checkpoint_ms.push_back(initial_checkpoint_ms);
    }
    const int workers = plan.workers[k];
    pending.clear();
    for (std::size_t i = 0; i < plan.cuts[k]; ++i)
      pending.push_back(plan.next());

    const std::uint64_t group = k + 1;
    Spans::Scope flush(spans, "replay.flush", 0, group);
    const std::uint64_t fid = flush.id();

    t.push_ns += timed(spans, "ingest.push", fid, group, [&] {
      for (const GraphUpdate& u : pending) queue.push(u);
    });
    raw.clear();
    t.drain_us.push_back(
        timed(spans, "ingest.drain", fid, group, [&] { queue.drain(raw); }) /
        1e3);
    engine::CoalescedBatch batch;
    t.coalesce_ns += timed(spans, "coalesce", fid, group,
                           [&] { batch = engine::coalesce(raw, g); });
    t.raw += static_cast<double>(raw.size());
    t.survivors +=
        static_cast<double>(batch.inserts.size() + batch.removes.size());

    durability::WalRecord rec;
    rec.epoch = group;
    rec.removes = batch.removes;
    rec.inserts = batch.inserts;
    const std::uint64_t bytes_before = wal->totals().wal_bytes;
    const double append_ns = timed(spans, "durability.wal", fid, group,
                                   [&] { wal->log_flush(rec); });
    t.wal_bytes += static_cast<double>(wal->totals().wal_bytes - bytes_before);
    if (!rec.removes.empty() || !rec.inserts.empty())
      t.wal_us.push_back(append_ns / 1e3);

    const std::uint64_t relabels_before = relabel_total(m.state());
    dirty.clear();
    auto apply = [&](const char* name, const std::vector<Edge>& edges,
                     ApplyTotals& totals, bool remove) {
      if (edges.empty()) return;
      BatchResult r;
      const double ns = timed(spans, name, fid, group, [&] {
        r = remove ? m.remove_batch(edges, workers)
                   : m.insert_batch(edges, workers);
      });
      totals.add(ns, edges.size(), m.last_timing());
      t.applied += static_cast<double>(r.applied);
      const std::span<const VertexId> changed = m.last_changed();
      dirty.insert(dirty.end(), changed.begin(), changed.end());
    };
    // Removes first, as the engine applies them.
    apply("parallel.remove", batch.removes,
          workers > 1 ? t.rem_multi : t.rem_one, true);
    apply("parallel.insert", batch.inserts,
          workers > 1 ? t.ins_multi : t.ins_one, false);
    t.relabels +=
        static_cast<double>(relabel_total(m.state()) - relabels_before);

    if (compact_interval > 0 && ++since_compact >= compact_interval) {
      since_compact = 0;
      timed(spans, "om.compact", fid, group,
            [&] { m.state().levels().compact_all(); });
    }

    query::CoreView view;
    t.publish_us.push_back(timed(spans, "query.publish", fid, group, [&] {
                             view = index.publish(dirty, [&](VertexId v) {
                               return m.core(v);
                             });
                           }) / 1e3);
    t.pages += static_cast<double>(index.last_pages_cloned());

    const std::size_t offset = (k * kPointReads) % kPointPool;
    CoreValue sum = 0;
    t.point_ns.push_back(timed(spans, "query.point", fid, group, [&] {
                           for (std::size_t i = 0; i < kPointReads; ++i)
                             sum += view.core(
                                 point_ids[(offset + i) % kPointPool]);
                         }) / static_cast<double>(kPointReads));
    g_read_sink = sum;

    if (wal->checkpoint_due())
      t.checkpoint_ms.push_back(checkpoint_ms(fid, group));

    // The sequential control runs outside the engine's flush order, on
    // its own copy of the graph, until it has used the measured phase's
    // length; then it is checked at that flush boundary. Unbounded it
    // took half of a traced burst run.
    if (control_on) {
      const double rem_ns = timed(spans, "maint.seq_remove", fid, group,
                                  [&] { seq.remove_batch(batch.removes); });
      const double ins_ns = timed(spans, "maint.seq_insert", fid, group,
                                  [&] { seq.insert_batch(batch.inserts); });
      t.seq_rem_ns += rem_ns;
      t.seq_rem_edges += static_cast<double>(batch.removes.size());
      t.seq_ins_ns += ins_ns;
      t.seq_ins_edges += static_cast<double>(batch.inserts.size());
      control_ns += rem_ns + ins_ns;
      if (control_ns > cfg.seconds * 1e9) {
        control_on = false;
        check_control();
      }
    }
    t.flushes += 1;
  }
  if (wal->dirty())
    t.checkpoint_ms.push_back(checkpoint_ms(0, plan.cuts.size()));
  wal.reset();
  remove_tree(wal_dir);

  if (control_on) check_control();
  std::vector<CoreValue> cores = m.cores();
  std::string why;
  report.check(m.state().check_invariants(g, &why),
               "replay: maintainer invariants: " + why);

  report.layer("parallel.insert_ns_per_edge", t.ins_multi.ns_per_edge(), "ns");
  report.layer("parallel.remove_ns_per_edge", t.rem_multi.ns_per_edge(), "ns");
  report.layer("parallel.insert_w1_ns_per_edge", t.ins_one.ns_per_edge(), "ns");
  report.layer("parallel.remove_w1_ns_per_edge", t.rem_one.ns_per_edge(), "ns");
  report.layer("parallel.insert_busy_frac", t.ins_multi.busy_frac(),
               "fraction");
  report.layer("parallel.remove_busy_frac", t.rem_multi.busy_frac(),
               "fraction");
  report.layer("parallel.vplus_per_edge", m.insert_vplus_histogram().mean(),
               "vertices");
  report.layer("parallel.vstar_per_edge", m.insert_vstar_histogram().mean(),
               "vertices");
  report.layer("parallel.remove_vstar_per_edge",
               m.remove_vstar_histogram().mean(), "vertices");
  report.layer("om.relabels_per_kupdate", ratio(t.relabels, t.applied / 1e3),
               "count");
  report.layer("maint.seq_insert_ns_per_edge",
               ratio(t.seq_ins_ns, t.seq_ins_edges), "ns");
  report.layer("maint.seq_remove_ns_per_edge",
               ratio(t.seq_rem_ns, t.seq_rem_edges), "ns");
  report.layer("ingest.push_ns_per_update", ratio(t.push_ns, t.raw), "ns");
  report.layer("ingest.drain_us_per_flush", median(t.drain_us), "us");
  report.layer("coalesce.ns_per_update", ratio(t.coalesce_ns, t.raw), "ns");
  report.layer("coalesce.survivor_ratio", ratio(t.survivors, t.raw),
               "fraction");
  report.layer("durability.wal_append_us_p50", median(t.wal_us), "us");
  report.layer("durability.wal_append_us_p99", percentile(t.wal_us, 0.99),
               "us");
  report.layer("durability.wal_bytes_per_update", ratio(t.wal_bytes, t.raw),
               "B");
  report.layer("durability.checkpoint_ms", median(t.checkpoint_ms), "ms");
  report.layer("query.publish_us_p50", median(t.publish_us), "us");
  report.layer("query.publish_us_p99", percentile(t.publish_us, 0.99), "us");
  report.layer("query.pages_per_flush", ratio(t.pages, t.flushes), "count");
  report.layer("query.point_ns", median(t.point_ns), "ns");
  report.extra("replay.flushes", t.flushes, "count");
  return cores;
}

}  // namespace e2e
