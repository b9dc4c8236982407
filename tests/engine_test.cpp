// Streaming engine: ingest buffer semantics, coalescing correctness,
// multi-producer stress cross-checked against a fresh decomposition,
// and epoch-snapshot consistency under concurrent flushes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>

#include "decomp/bz.h"
#include "engine/coalesce.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "gen/generators.h"
#include "graph/edge_list.h"
#include "test_util.h"

namespace parcore {
namespace {

using engine::CoalescedBatch;
using engine::IngestQueue;
using engine::StreamingEngine;

GraphUpdate ins(VertexId u, VertexId v) {
  return GraphUpdate{Edge{u, v}, UpdateKind::kInsert};
}
GraphUpdate rem(VertexId u, VertexId v) {
  return GraphUpdate{Edge{u, v}, UpdateKind::kRemove};
}

// ------------------------------------------------------------- ingest

TEST(IngestQueue, DrainReturnsEverythingOnce) {
  IngestQueue q(4);
  for (VertexId i = 0; i < 100; ++i) q.push(ins(i, i + 1));
  EXPECT_EQ(q.approx_size(), 100u);
  std::vector<GraphUpdate> out;
  EXPECT_EQ(q.drain(out), 100u);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(q.approx_size(), 0u);
  out.clear();
  EXPECT_EQ(q.drain(out), 0u);
}

TEST(IngestQueue, SingleProducerOrderPreserved) {
  // One thread maps to one shard, so its updates drain in FIFO order.
  IngestQueue q(8);
  for (VertexId i = 0; i < 1000; ++i) q.push(ins(i, i + 1));
  std::vector<GraphUpdate> out;
  q.drain(out);
  ASSERT_EQ(out.size(), 1000u);
  for (VertexId i = 0; i < 1000; ++i) EXPECT_EQ(out[i].e.u, i);
}

TEST(IngestQueue, ConcurrentPushersLoseNothing) {
  IngestQueue q(8);
  constexpr int kThreads = 8, kPer = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&q, t] {
      for (int i = 0; i < kPer; ++i)
        q.push(ins(static_cast<VertexId>(t), static_cast<VertexId>(i + 100)));
    });
  }
  for (auto& th : threads) th.join();
  std::vector<GraphUpdate> out;
  EXPECT_EQ(q.drain(out), static_cast<std::size_t>(kThreads * kPer));
}

// ----------------------------------------------------------- coalesce

TEST(Coalesce, InsertRemovePairAnnihilates) {
  auto g = test::make_graph(4, {});
  std::vector<GraphUpdate> ops{ins(0, 1), rem(0, 1)};
  CoalescedBatch b = engine::coalesce(ops, g);
  EXPECT_TRUE(b.inserts.empty());
  EXPECT_TRUE(b.removes.empty());
  // [insert, remove] on an absent edge: remove wins, nets to a no-op.
  EXPECT_EQ(b.stats.noops, 1u);
  EXPECT_EQ(b.stats.duplicates, 1u);
}

TEST(Coalesce, LastOpWinsNotPureCancellation) {
  // remove(absent) then insert must still insert — drain order
  // serialises the ops, it does not blindly cancel pairs.
  auto g = test::make_graph(4, {});
  std::vector<GraphUpdate> ops{rem(0, 1), ins(0, 1)};
  CoalescedBatch b = engine::coalesce(ops, g);
  ASSERT_EQ(b.inserts.size(), 1u);
  EXPECT_EQ(b.inserts[0], (Edge{0, 1}));
  EXPECT_TRUE(b.removes.empty());
}

TEST(Coalesce, DuplicatesCollapse) {
  auto g = test::make_graph(4, {});
  std::vector<GraphUpdate> ops{ins(0, 1), ins(1, 0), ins(0, 1)};
  CoalescedBatch b = engine::coalesce(ops, g);
  ASSERT_EQ(b.inserts.size(), 1u);  // orientation-insensitive dedup
  EXPECT_EQ(b.stats.duplicates, 2u);
}

TEST(Coalesce, AnnihilationPairsCounted) {
  auto g = test::make_graph(4, {});
  // insert, remove, insert: the final insert wins; the first two form
  // one annihilated pair.
  std::vector<GraphUpdate> ops{ins(0, 1), rem(0, 1), ins(0, 1)};
  CoalescedBatch b = engine::coalesce(ops, g);
  ASSERT_EQ(b.inserts.size(), 1u);
  EXPECT_EQ(b.stats.annihilated_pairs, 1u);
  EXPECT_EQ(b.stats.duplicates, 0u);
}

TEST(Coalesce, NoopsAgainstGraphFiltered) {
  auto g = test::make_graph(4, {Edge{0, 1}});
  std::vector<GraphUpdate> ops{ins(0, 1), rem(2, 3)};
  CoalescedBatch b = engine::coalesce(ops, g);
  EXPECT_TRUE(b.inserts.empty());   // already present
  EXPECT_TRUE(b.removes.empty());   // already absent
  EXPECT_EQ(b.stats.noops, 2u);
}

TEST(Coalesce, RejectsSelfLoopsAndOutOfRange) {
  auto g = test::make_graph(4, {});
  std::vector<GraphUpdate> ops{ins(2, 2), ins(1, 9), rem(7, 8)};
  CoalescedBatch b = engine::coalesce(ops, g);
  EXPECT_TRUE(b.inserts.empty());
  EXPECT_TRUE(b.removes.empty());
  EXPECT_EQ(b.stats.rejected, 3u);
}

TEST(Coalesce, BatchesDisjointAndAccountingExact) {
  // Random hot-set stream: verify the emitted batches never share an
  // edge, match membership, and that every raw op is accounted for.
  Rng rng(99);
  auto edges = gen_erdos_renyi(200, 600, rng);
  canonicalize_edges(edges);
  const std::size_t half = edges.size() / 2;
  auto g = DynamicGraph::from_edges(
      200, std::span<const Edge>(edges.data(), half));
  auto stream = gen_update_stream(edges, 20000, 0.4, 0.8, rng);
  CoalescedBatch b = engine::coalesce(stream, g);

  std::unordered_set<std::uint64_t> seen;
  for (const Edge& e : b.inserts) {
    EXPECT_TRUE(seen.insert(edge_key(e)).second);
    EXPECT_FALSE(g.has_edge(e.u, e.v));
  }
  for (const Edge& e : b.removes) {
    EXPECT_TRUE(seen.insert(edge_key(e)).second);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
  EXPECT_EQ(b.stats.raw, b.stats.rejected + 2 * b.stats.annihilated_pairs +
                             b.stats.duplicates + b.stats.noops +
                             b.inserts.size() + b.removes.size());
  EXPECT_GT(b.stats.annihilated_pairs, 0u);
  EXPECT_GT(b.stats.duplicates, 0u);
}

// Reference last-op-wins model: every op of an edge kept in an ordered
// map, first-seen order in a list, the winner read off the back.
CoalescedBatch reference_coalesce(std::span<const GraphUpdate> ops,
                                  const DynamicGraph& g) {
  CoalescedBatch out;
  out.stats.raw = ops.size();
  const auto n = static_cast<VertexId>(g.num_vertices());
  std::map<std::pair<VertexId, VertexId>, std::vector<UpdateKind>> kinds;
  std::vector<std::pair<VertexId, VertexId>> order;
  for (const GraphUpdate& u : ops) {
    if (u.e.u == u.e.v || std::max(u.e.u, u.e.v) >= n) {
      ++out.stats.rejected;
      continue;
    }
    const Edge c = canonical(u.e);
    auto [it, fresh] = kinds.try_emplace({c.u, c.v});
    if (fresh) order.push_back(it->first);
    it->second.push_back(u.kind);
  }
  for (const auto& key : order) {
    const std::vector<UpdateKind>& k = kinds[key];
    const auto earlier_ins = static_cast<std::size_t>(
        std::count(k.begin(), k.end() - 1, UpdateKind::kInsert));
    const std::size_t earlier_rem = k.size() - 1 - earlier_ins;
    const std::size_t pairs = std::min(earlier_ins, earlier_rem);
    out.stats.annihilated_pairs += pairs;
    out.stats.duplicates += k.size() - 1 - 2 * pairs;
    const bool insert = k.back() == UpdateKind::kInsert;
    if (insert == g.has_edge(key.first, key.second))
      ++out.stats.noops;
    else
      (insert ? out.inserts : out.removes).push_back({key.first, key.second});
  }
  return out;
}

void expect_same_batch(const CoalescedBatch& got, const CoalescedBatch& want,
                       const std::string& label) {
  EXPECT_EQ(got.inserts, want.inserts) << label;
  EXPECT_EQ(got.removes, want.removes) << label;
  EXPECT_EQ(got.stats.raw, want.stats.raw) << label;
  EXPECT_EQ(got.stats.annihilated_pairs, want.stats.annihilated_pairs)
      << label;
  EXPECT_EQ(got.stats.duplicates, want.stats.duplicates) << label;
  EXPECT_EQ(got.stats.noops, want.stats.noops) << label;
  EXPECT_EQ(got.stats.rejected, want.stats.rejected) << label;
}

TEST(Coalesce, MatchesReferenceModelInFirstSeenOrder) {
  // Pins the output order too: both batches must equal the reference's
  // element by element, in first-seen drain order.
  constexpr VertexId kN = 300;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    auto edges = gen_erdos_renyi(kN, 900, rng);
    canonicalize_edges(edges);
    auto g = DynamicGraph::from_edges(
        kN, std::span<const Edge>(edges.data(), edges.size() / 2));
    auto stream = gen_update_stream(edges, 5000 + 777 * seed, 0.45, 0.8, rng);
    // Self-loops and out-of-range endpoints at random positions, some
    // reversed so orientation must not split an edge either.
    for (std::size_t i = 0; i < stream.size(); i += 1 + rng.bounded(40)) {
      const auto v = static_cast<VertexId>(rng.bounded(kN));
      switch (rng.bounded(4)) {
        case 0: stream[i].e = {v, v}; break;
        case 1: stream[i].e = {v, kN + v}; break;
        case 2: stream[i].e = {kN, v}; break;
        default: stream[i].e = {stream[i].e.v, stream[i].e.u}; break;
      }
    }
    expect_same_batch(engine::coalesce(stream, g),
                      reference_coalesce(stream, g),
                      "seed " + std::to_string(seed));
  }

  auto g = test::make_graph(kN, {Edge{3, 4}});
  // Every update on one edge, both orientations and kinds.
  std::vector<GraphUpdate> same;
  for (int i = 0; i < 1001; ++i)
    same.push_back(i % 3 == 0 ? rem(4, 3) : i % 2 == 0 ? ins(3, 4) : rem(3, 4));
  const CoalescedBatch one = engine::coalesce(same, g);
  expect_same_batch(one, reference_coalesce(same, g), "one edge");
  EXPECT_EQ(one.inserts.size() + one.removes.size() + one.stats.noops, 1u);

  // All distinct, a length that is not a power of two.
  std::vector<GraphUpdate> distinct;
  for (VertexId i = 0; i + 1 < kN && distinct.size() < 299; ++i)
    distinct.push_back(i % 2 == 0 ? ins(i + 1, i) : rem(i, i + 1));
  const CoalescedBatch all = engine::coalesce(distinct, g);
  expect_same_batch(all, reference_coalesce(distinct, g), "all distinct");
  EXPECT_EQ(all.stats.duplicates + all.stats.annihilated_pairs, 0u);

  expect_same_batch(engine::coalesce({}, g), reference_coalesce({}, g),
                    "empty");
}

// ------------------------------------------------------------- engine

TEST(Engine, ManualFlushMatchesDecomposition) {
  test::Workload w = test::make_workload(test::Family::kRmat, 400, 0.3, 17);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  StreamingEngine eng(g, team);  // never start()ed: manual mode

  EXPECT_EQ(eng.epoch(), 0u);
  for (const Edge& e : w.batch) eng.submit_insert(e.u, e.v);
  eng.flush_now();
  EXPECT_EQ(eng.epoch(), 1u);
  test::expect_cores_match(g, eng.snapshot()->materialize(),
                           "after insert flush");

  for (const Edge& e : w.batch) eng.submit_remove(e.u, e.v);
  eng.flush_now();
  EXPECT_EQ(eng.epoch(), 2u);
  test::expect_cores_match(g, eng.snapshot()->materialize(),
                           "after remove flush");
}

TEST(Engine, SnapshotKCoreMembership) {
  auto edges = gen_clique(6);  // core 5 everywhere
  auto g = DynamicGraph::from_edges(10, edges);
  ThreadTeam team(2);
  StreamingEngine eng(g, team);
  auto snap = eng.snapshot();
  EXPECT_EQ(snap->kcore_members(5).size(), 6u);
  EXPECT_EQ(snap->kcore_members(6).size(), 0u);
  EXPECT_TRUE(snap->in_kcore(0, 5));
  EXPECT_FALSE(snap->in_kcore(9, 1));  // isolated vertex
}

TEST(Engine, OmCompactionReclaimsGroupsAtQuiescentPoints) {
  test::Workload w = test::make_workload(test::Family::kRmat, 300, 0.4, 23);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.om_compact_interval = 1;  // compact at every flush
  // Tiny OM groups force constant splits/rebalances, so quarantined
  // groups actually accumulate between flushes.
  opts.maintainer.state.om_group_capacity = 2;
  StreamingEngine eng(g, team, opts);

  for (const Edge& e : w.batch) eng.submit_insert(e.u, e.v);
  eng.flush_now();
  for (const Edge& e : w.batch) eng.submit_remove(e.u, e.v);
  eng.flush_now();
  for (const Edge& e : w.batch) eng.submit_insert(e.u, e.v);
  eng.flush_now();

  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.om_compactions, 3u);
  EXPECT_GT(stats.om_groups_reclaimed, 0u);
  test::expect_cores_match(g, eng.snapshot()->materialize(),
                           "after compactions");
}

TEST(Engine, OmCompactionIntervalZeroDisables) {
  auto g = DynamicGraph::from_edges(8, {});
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.om_compact_interval = 0;
  StreamingEngine eng(g, team, opts);
  eng.submit_insert(0, 1);
  eng.flush_now();
  EXPECT_EQ(eng.stats().om_compactions, 0u);
}

TEST(Engine, StopFlushesTail) {
  auto g = DynamicGraph::from_edges(8, {});
  ThreadTeam team(2);
  {
    StreamingEngine eng(g, team);
    eng.start();
    eng.submit_insert(0, 1);
    eng.submit_insert(1, 2);
    eng.submit_insert(0, 2);
    eng.stop();
    EXPECT_EQ(eng.core(0), 2);
  }
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Engine, StartStopCycleKeepsFlushing) {
  auto g = DynamicGraph::from_edges(8, {});
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.flush_interval_ms = 0.5;
  StreamingEngine eng(g, team, opts);
  eng.start();
  eng.submit_insert(0, 1);
  eng.stop();
  eng.start();  // the restarted scheduler must be live, not stop-armed
  eng.submit_insert(1, 2);
  eng.submit_insert(0, 2);
  // Interval-driven flushes must apply these without stop()'s help.
  for (int i = 0; i < 2000 && g.num_edges() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(g.num_edges(), 3u);
  eng.stop();
  EXPECT_EQ(eng.core(0), 2);
}

// The acceptance-criteria stress: >= 4 producers, >= 100k interleaved
// updates against a live engine; the final core numbers must match a
// fresh BZ decomposition of the resulting graph for every vertex.
//
// Producers own disjoint edge universes, so the expected end-state is
// the deterministic per-producer replay even though the cross-producer
// interleaving (and the flush boundaries) are scheduler-dependent.
TEST(Engine, MultiProducerStressMatchesDecomposition) {
  constexpr int kProducers = 4;
  constexpr std::size_t kOpsPerProducer = 25000;  // 100k total

  Rng rng(4242);
  const std::size_t n = 3000;
  auto candidates = gen_erdos_renyi(n, 12000, rng);
  canonicalize_edges(candidates);
  rng.shuffle(candidates);
  // First half of the candidates form the base graph; producers churn
  // over per-producer slices of the whole candidate set.
  const std::size_t base_count = candidates.size() / 2;
  std::vector<Edge> base(candidates.begin(),
                         candidates.begin() +
                             static_cast<std::ptrdiff_t>(base_count));

  std::vector<std::vector<GraphUpdate>> streams;
  const std::size_t slice = candidates.size() / kProducers;
  for (int p = 0; p < kProducers; ++p) {
    std::span<const Edge> universe(candidates.data() + p * slice, slice);
    Rng prng(1000 + static_cast<std::uint64_t>(p));
    streams.push_back(
        gen_update_stream(universe, kOpsPerProducer, 0.45, 0.7, prng));
  }

  auto g = DynamicGraph::from_edges(n, base);
  ThreadTeam team(8);
  StreamingEngine::Options opts;
  opts.flush_threshold = 2048;
  opts.flush_interval_ms = 1.0;
  opts.workers = 4;
  opts.adaptive = true;
  opts.target_flush_ms = 4.0;
  StreamingEngine eng(g, team, opts);
  eng.start();

  // Two waves with an explicit flush between them: guarantees the
  // final state spans >= 2 epochs regardless of scheduler timing (the
  // scheduler typically adds many more).
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&eng, &streams, p, wave] {
        const auto& stream = streams[static_cast<std::size_t>(p)];
        const std::size_t half = stream.size() / 2;
        const std::size_t lo = wave == 0 ? 0 : half;
        const std::size_t hi = wave == 0 ? half : stream.size();
        for (std::size_t i = lo; i < hi; ++i) eng.submit(stream[i]);
      });
    }
    for (auto& t : producers) t.join();
    if (wave == 0) eng.flush_now();
  }
  eng.stop();

  // Expected end state: base edges, then each producer's stream
  // replayed sequentially (disjoint universes make the order across
  // producers irrelevant).
  std::unordered_set<std::uint64_t> expect_present;
  for (const Edge& e : base) expect_present.insert(edge_key(e));
  for (const auto& stream : streams) {
    for (const GraphUpdate& u : stream) {
      if (u.kind == UpdateKind::kInsert)
        expect_present.insert(edge_key(u.e));
      else
        expect_present.erase(edge_key(u.e));
    }
  }
  std::vector<Edge> expect_edges;
  expect_edges.reserve(expect_present.size());
  for (std::uint64_t key : expect_present)
    expect_edges.push_back(Edge{static_cast<VertexId>(key >> 32),
                                static_cast<VertexId>(key & 0xffffffffu)});

  // 1. The engine's graph must be exactly the expected edge set.
  ASSERT_EQ(g.num_edges(), expect_present.size());
  for (const Edge& e : expect_edges) ASSERT_TRUE(g.has_edge(e.u, e.v));

  // 2. Engine cores == fresh decomposition, every vertex.
  auto expect_g = DynamicGraph::from_edges(n, expect_edges);
  Decomposition fresh = bz_decompose(expect_g);
  auto snap = eng.snapshot();
  ASSERT_EQ(snap->num_vertices(), n);
  const std::vector<CoreValue> cores = snap->materialize();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(cores[v], fresh.core[v]) << "vertex " << v;
    ASSERT_EQ(snap->view.core(v), fresh.core[v]) << "view vertex " << v;
  }

  // 3. The hot-set stream must have exercised the coalescer, and the
  //    accounting must balance: every submitted op drained + bucketed.
  engine::EngineStats st = eng.stats();
  EXPECT_EQ(st.submitted, kProducers * kOpsPerProducer);
  EXPECT_GE(st.epochs, 2u);
  EXPECT_GT(st.coalesce.annihilated_pairs, 0u);
  EXPECT_GT(st.coalesce.duplicates, 0u);
  EXPECT_EQ(st.coalesce.raw, st.submitted);
  EXPECT_EQ(st.coalesce.raw,
            st.coalesce.rejected + 2 * st.coalesce.annihilated_pairs +
                st.coalesce.duplicates + st.coalesce.noops +
                st.applied_inserts + st.applied_removes + st.skipped);
  // The coalescer pre-filters everything the maintainer would skip.
  EXPECT_EQ(st.skipped, 0u);
  EXPECT_EQ(st.flush_us.count, st.epochs);

  // 4. Invariants of the maintained order structure still hold.
  std::string err;
  ASSERT_TRUE(eng.maintainer().state().check_invariants(g, &err)) << err;
}

// Readers must always observe immutable, epoch-monotonic snapshots
// while flushes are racing.
TEST(Engine, SnapshotConsistencyUnderConcurrentFlushes) {
  Rng rng(7);
  const std::size_t n = 800;
  auto candidates = gen_erdos_renyi(n, 3200, rng);
  canonicalize_edges(candidates);
  auto g = DynamicGraph::from_edges(
      n, std::span<const Edge>(candidates.data(), candidates.size() / 2));
  ThreadTeam team(4);
  StreamingEngine::Options opts;
  opts.flush_threshold = 512;
  opts.flush_interval_ms = 0.5;
  opts.workers = 2;
  StreamingEngine eng(g, team, opts);
  eng.start();

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    std::uint64_t last_epoch = 0;
    std::shared_ptr<const engine::EngineSnapshot> held = eng.snapshot();
    const std::vector<CoreValue> held_copy = held->materialize();
    while (!done.load(std::memory_order_relaxed)) {
      auto snap = eng.snapshot();
      if (snap->epoch < last_epoch || snap->num_vertices() != n) {
        failed.store(true);
        return;
      }
      last_epoch = snap->epoch;
    }
    // A held snapshot is immutable: later flushes must never have
    // touched its (page-shared) view.
    if (held->materialize() != held_copy) failed.store(true);
  });

  Rng prng(31);
  auto stream = gen_update_stream(candidates, 60000, 0.5, 0.6, prng);
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p); i < stream.size();
           i += 2)
        eng.submit(stream[i]);
    });
  }
  for (auto& t : producers) t.join();
  eng.stop();
  done.store(true);
  reader.join();
  EXPECT_FALSE(failed.load());

  // Final snapshot agrees with a fresh decomposition of the end state.
  test::expect_cores_match(g, eng.snapshot()->materialize(), "final snapshot");
}

// ISSUE 5 satellite: publish_snapshot used to run BEFORE the stats
// update, so a reader could observe snapshot epoch e paired with stats
// from epoch e-1. The flush now stamps EngineStats with the epoch it
// describes and swaps the snapshot in last; a reader that grabs
// snapshot() then stats() must always see stats.epochs >= snap->epoch.
TEST(Engine, StatsNeverLagTheSnapshotTheyDescribe) {
  Rng rng(21);
  const std::size_t n = 600;
  auto candidates = gen_erdos_renyi(n, 2400, rng);
  canonicalize_edges(candidates);
  auto g = DynamicGraph::from_edges(
      n, std::span<const Edge>(candidates.data(), candidates.size() / 2));
  ThreadTeam team(4);
  StreamingEngine::Options opts;
  opts.flush_threshold = 256;
  opts.flush_interval_ms = 0.2;
  opts.workers = 2;
  StreamingEngine eng(g, team, opts);
  eng.start();

  std::atomic<bool> done{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto snap = eng.snapshot();            // observe epoch first...
        const engine::EngineStats st = eng.stats();  // ...then its stats
        if (st.epochs < snap->epoch) {
          torn.store(true);
          return;
        }
      }
    });
  }

  Rng prng(77);
  auto stream = gen_update_stream(candidates, 40000, 0.5, 0.6, prng);
  for (const GraphUpdate& u : stream) eng.submit(u);
  eng.stop();
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GE(eng.stats().epochs, eng.snapshot()->epoch);
}

TEST(Engine, AdaptiveThresholdMovesTowardTarget) {
  Rng rng(13);
  const std::size_t n = 500;
  auto candidates = gen_erdos_renyi(n, 2000, rng);
  canonicalize_edges(candidates);
  auto g = DynamicGraph::from_edges(n, {});
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.flush_threshold = 4096;
  opts.adaptive = true;
  opts.target_flush_ms = 1e-6;  // unreachably fast: must shrink
  StreamingEngine eng(g, team, opts);
  auto stream = gen_update_stream(candidates, 20000, 0.3, 0.5, rng);
  for (const GraphUpdate& u : stream) eng.submit(u);
  for (int i = 0; i < 6; ++i) eng.flush_now();
  EXPECT_LT(eng.current_flush_threshold(), 4096u);
}

TEST(Engine, AdaptiveThresholdNeverExceedsIngestCap) {
  auto g = DynamicGraph::from_edges(64, {});
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.ingest_cap = 64;
  opts.adaptive = true;
  opts.target_flush_ms = 1e6;  // unreachably slow: the policy must grow
  StreamingEngine eng(g, team, opts);
  ASSERT_EQ(eng.current_flush_threshold(), 64u);
  // Twelve flushes of 32 updates: each one asks for a larger threshold.
  for (int round = 0; round < 12; ++round) {
    for (VertexId v = 0; v < 32; ++v) {
      if (round % 2 == 0)
        eng.submit_insert(v, v + 32);
      else
        eng.submit_remove(v, v + 32);
    }
    eng.flush_now();
    // Above the cap a full buffer never crosses the threshold and the
    // overload detector (backlog >= threshold) can never fire.
    ASSERT_LE(eng.current_flush_threshold(), opts.ingest_cap)
        << "after flush " << round;
  }
  std::int64_t exported = -1;
  for (const obs::GaugeRow& r : eng.metric_rows().gauges)
    if (r.name == "parcore_flush_threshold") exported = r.value;
  EXPECT_EQ(exported, 64);
}

// -------------------------------------------------------- self-healing

TEST(Engine, ReverifierQuarantinesCorruptionAndNextFlushRepairsIt) {
  test::Workload w = test::make_workload(test::Family::kRmat, 300, 0.3, 29);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(4);
  StreamingEngine::Options opts;
  opts.workers = 2;
  StreamingEngine eng(g, team, opts);
  for (const Edge& e : w.batch) eng.submit_insert(e.u, e.v);
  eng.flush_now();
  const std::uint64_t epoch_before = eng.epoch();

  // A clean verify pins the current snapshot as the verified fallback.
  EXPECT_EQ(eng.run_reverify_once(), 0u);
  EXPECT_FALSE(eng.quarantined());
  const std::vector<CoreValue> verified = eng.snapshot()->materialize();

  // Inject silent state corruption (a flipped core value, as a cosmic
  // ray / heisenbug stand-in) and republish it.
  const std::vector<VertexId> victims{0, 1, 2};
  eng.corrupt_cores_for_test(victims, +1);
  {
    auto snap = eng.snapshot();
    for (VertexId v : victims)
      EXPECT_EQ(snap->core(v), verified[v] + 1) << "corruption not visible";
  }

  // The re-verifier detects the mismatch and quarantines queries: the
  // snapshot swings back to the last VERIFIED epoch's values.
  EXPECT_GT(eng.run_reverify_once(), 0u);
  EXPECT_TRUE(eng.quarantined());
  EXPECT_TRUE(eng.stats().quarantined);
  {
    auto snap = eng.snapshot();
    EXPECT_EQ(snap->epoch, epoch_before);
    for (VertexId v : victims)
      EXPECT_EQ(snap->core(v), verified[v]) << "quarantine not serving "
                                               "the verified snapshot";
  }

  // The next flush rebuilds from scratch, repairs the corruption, and
  // lifts the quarantine — within one flush, as promised.
  eng.flush_now();
  EXPECT_FALSE(eng.quarantined());
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_GT(stats.phases.repair_us, 0u);
  test::expect_cores_match(g, eng.snapshot()->materialize(), "post-repair");

  // And the repaired state passes a fresh verify.
  EXPECT_EQ(eng.run_reverify_once(), 0u);
}

TEST(Engine, RepairFlushAppliesPendingSubmitsToo) {
  // Corruption + a pending batch: one flush both repairs and applies.
  test::Workload w = test::make_workload(test::Family::kBa, 200, 0.4, 31);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  StreamingEngine eng(g, team);
  EXPECT_EQ(eng.run_reverify_once(), 0u);
  eng.corrupt_cores_for_test({3, 4}, +2);
  EXPECT_GT(eng.run_reverify_once(), 0u);

  for (const Edge& e : w.batch) eng.submit_insert(e.u, e.v);
  eng.flush_now();
  EXPECT_FALSE(eng.quarantined());
  EXPECT_EQ(eng.stats().repairs, 1u);
  test::expect_cores_match(g, eng.snapshot()->materialize(),
                           "repair + apply in one flush");
}

TEST(Engine, SchedulerRunsRepairFlushWithoutNewSubmits) {
  // With the background scheduler running, a detected mismatch must be
  // repaired even if no further updates ever arrive: the re-verifier
  // nudges the scheduler, whose next flush runs the rebuild.
  auto edges = gen_clique(8);
  auto g = DynamicGraph::from_edges(12, edges);
  ThreadTeam team(2);
  StreamingEngine eng(g, team);
  eng.start();
  EXPECT_EQ(eng.run_reverify_once(), 0u);
  eng.corrupt_cores_for_test({0}, +3);
  EXPECT_GT(eng.run_reverify_once(), 0u);
  for (int spins = 0; eng.quarantined() && spins < 500; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  eng.stop();
  EXPECT_FALSE(eng.quarantined());
  EXPECT_GE(eng.stats().repairs, 1u);
  test::expect_cores_match(g, eng.snapshot()->materialize(),
                           "background repair");
}

// ------------------------------------------------------ metric export

std::uint64_t counter_row(const obs::Rows& rows, const std::string& name) {
  for (const obs::CounterRow& r : rows.counters)
    if (r.name == name) return r.value;
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

std::int64_t gauge_row(const obs::Rows& rows, const std::string& name) {
  for (const obs::GaugeRow& r : rows.gauges)
    if (r.name == name) return r.value;
  ADD_FAILURE() << "no gauge " << name;
  return 0;
}

const obs::Histogram* histogram_row(const obs::Rows& rows,
                                              const std::string& name) {
  for (const obs::HistogramRow& r : rows.histograms)
    if (r.name == name) return &r.snap;
  ADD_FAILURE() << "no histogram " << name;
  return nullptr;
}

// Two engines in one process: each one's export renders its own
// stats() and its own graph's arena, never a process-wide sum, and the
// submitted count is exact before any flush drains it.
TEST(EngineMetrics, TwoEnginesExportTheirOwnStats) {
  test::Workload wa = test::hub_workload(300, 80, 41);
  test::Workload wb = test::hub_workload(400, 120, 43);
  auto ga = DynamicGraph::from_edges(wa.n, wa.base);
  auto gb = DynamicGraph::from_edges(wb.n, wb.base);
  ThreadTeam team_a(2), team_b(4);
  StreamingEngine::Options opts;
  opts.workers = 4;
  StreamingEngine a(ga, team_a), b(gb, team_b, opts);

  for (const Edge& e : wa.batch) a.submit_insert(e.u, e.v);
  a.flush_now();
  for (const Edge& e : wb.batch) b.submit_insert(e.u, e.v);
  b.flush_now();
  for (const Edge& e : wb.batch) b.submit_remove(e.u, e.v);
  b.flush_now();
  // Buffered, not yet flushed: counted as submitted all the same.
  a.submit_insert(wa.batch[0].u, wa.batch[0].v);

  const engine::EngineStats sa = a.stats();
  const engine::EngineStats sb = b.stats();
  EXPECT_EQ(sa.epochs, 1u);
  EXPECT_EQ(sb.epochs, 2u);
  EXPECT_EQ(sa.submitted, wa.batch.size() + 1);
  EXPECT_EQ(sb.submitted, 2 * wb.batch.size());
  EXPECT_GT(sb.applied_removes, 0u);

  for (StreamingEngine* eng : {&a, &b}) {
    const engine::EngineStats s = eng->stats();
    const obs::Rows rows = eng->metric_rows();
    // One index publish per flush (no repairs here) plus the epoch-0
    // build, one pages-cloned sample each.
    EXPECT_EQ(s.repairs, 0u);
    EXPECT_EQ(counter_row(rows, "parcore_publishes_total"), s.epochs);
    EXPECT_EQ(counter_row(rows, "parcore_index_rebuilds_total"), 1u);
    if (const obs::Histogram* h =
            histogram_row(rows, "parcore_publish_pages_cloned")) {
      EXPECT_EQ(h->count, s.epochs + 1);
      EXPECT_EQ(h->sum,
                counter_row(rows, "parcore_snapshot_pages_cloned_total"));
    }
    const GraphMemoryStats mem = eng->graph().memory_stats();
    EXPECT_GT(mem.arena_reserved_bytes, 0u);
    EXPECT_EQ(gauge_row(rows, "parcore_arena_reserved_bytes"),
              static_cast<std::int64_t>(mem.arena_reserved_bytes));
    EXPECT_EQ(gauge_row(rows, "parcore_arena_chunks"),
              static_cast<std::int64_t>(mem.chunk_count));
    EXPECT_EQ(counter_row(rows, "parcore_flushes_total"), s.epochs);
    EXPECT_EQ(gauge_row(rows, "parcore_epoch"),
              static_cast<std::int64_t>(s.epochs));
    EXPECT_EQ(counter_row(rows, "parcore_updates_submitted_total"),
              s.submitted);
    EXPECT_EQ(counter_row(rows, "parcore_inserts_applied_total"),
              s.applied_inserts);
    EXPECT_EQ(counter_row(rows, "parcore_removes_applied_total"),
              s.applied_removes);
    EXPECT_EQ(counter_row(rows, "parcore_deferred_edges_total"),
              s.deferred_edges);
    EXPECT_EQ(gauge_row(rows, "parcore_flush_threshold"),
              static_cast<std::int64_t>(eng->current_flush_threshold()));
    EXPECT_EQ(counter_row(rows, "parcore_adjacency_entries_scanned_total"),
              s.adjacency_entries_scanned);
    EXPECT_EQ(counter_row(rows, "parcore_adjacency_repartitions_total"),
              s.adjacency_repartitions);
    // b's removals always scan: their dout repair reads both endpoints.
    if (eng == &b) EXPECT_GT(s.adjacency_entries_scanned, 0u);
    std::uint64_t deferred = 0, scanned = 0, repartitions = 0;
    for (const obs::FlushSpan& span : eng->trace().snapshot()) {
      deferred += span.deferred_edges;
      scanned += span.adjacency_scanned;
      repartitions += span.adjacency_repartitions;
    }
    EXPECT_EQ(s.deferred_edges, deferred);
    EXPECT_EQ(s.adjacency_entries_scanned, scanned);
    EXPECT_EQ(s.adjacency_repartitions, repartitions);
    if (const obs::Histogram* h =
            histogram_row(rows, "parcore_flush_us"))
      EXPECT_EQ(h->count, s.epochs);
    if (const obs::Histogram* h =
            histogram_row(rows, "parcore_engine_init_us"))
      EXPECT_EQ(h->count, 1u);
  }
}

// The coalescer's rows account for every submit: after stop() has
// flushed the tail, each update was rejected, annihilated in a pair, a
// duplicate, a no-op, or applied.
TEST(EngineMetrics, CoalesceRowsAccountForEverySubmit) {
  constexpr VertexId kN = 400;
  Rng rng(51);
  auto edges = gen_erdos_renyi(kN, 1500, rng);
  canonicalize_edges(edges);
  auto g = DynamicGraph::from_edges(
      kN, std::span<const Edge>(edges.data(), edges.size() / 2));
  auto stream = gen_update_stream(edges, 20000, 0.45, 0.8, rng);
  for (std::size_t i = 0; i < stream.size(); i += 97)
    stream[i].e = i % 2 == 0 ? Edge{7, 7} : Edge{3, kN + 3};
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.workers = 2;
  opts.flush_threshold = 256;
  StreamingEngine eng(g, team, opts);
  eng.start();
  constexpr std::size_t kProducers = 2;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&eng, &stream, p] {
      for (std::size_t i = p; i < stream.size(); i += kProducers)
        eng.submit(stream[i]);
    });
  for (auto& t : producers) t.join();
  eng.stop();

  const engine::EngineStats s = eng.stats();
  const obs::Rows rows = eng.metric_rows();
  const std::uint64_t rejected =
      counter_row(rows, "parcore_coalesce_rejected_total");
  const std::uint64_t pairs =
      counter_row(rows, "parcore_coalesce_annihilated_pairs_total");
  const std::uint64_t duplicates =
      counter_row(rows, "parcore_coalesce_duplicates_total");
  const std::uint64_t noops = counter_row(rows, "parcore_coalesce_noops_total");
  EXPECT_EQ(counter_row(rows, "parcore_updates_submitted_total"),
            rejected + 2 * pairs + duplicates + noops +
                counter_row(rows, "parcore_inserts_applied_total") +
                counter_row(rows, "parcore_removes_applied_total"));
  EXPECT_EQ(counter_row(rows, "parcore_updates_submitted_total"),
            stream.size());
  EXPECT_EQ(rejected, (stream.size() + 96) / 97);
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_EQ(rejected, s.coalesce.rejected);
  EXPECT_EQ(pairs, s.coalesce.annihilated_pairs);
  EXPECT_EQ(duplicates, s.coalesce.duplicates);
  EXPECT_EQ(noops, s.coalesce.noops);
  EXPECT_EQ(counter_row(rows, "parcore_coalesce_us_total"),
            s.phases.coalesce_us);
}

// The flush, publish and batch-size histograms are exported as the
// very obs::Histograms stats() returns: no fold, every bucket equal,
// one sample per flush.
TEST(EngineMetrics, FlushHistogramRowsEqualStatsBucketForBucket) {
  test::Workload w = test::hub_workload(400, 120, 45);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.workers = 2;
  StreamingEngine eng(g, team, opts);  // manual mode: no flush races
  // Batches of 1, 2, 4, ... edges so batch_sizes fills several buckets.
  std::size_t next = 0;
  for (std::size_t len = 1; next + len <= w.batch.size(); len *= 2) {
    for (std::size_t i = 0; i < len; ++i, ++next)
      eng.submit_insert(w.batch[next].u, w.batch[next].v);
    eng.flush_now();
  }
  const engine::EngineStats s = eng.stats();
  const obs::Rows rows = eng.metric_rows();
  ASSERT_GE(s.epochs, 5u);
  EXPECT_GE(s.batch_sizes.quantile_upper(0.99), 31u);

  const std::pair<const char*, const obs::Histogram*> pairs[] = {
      {"parcore_flush_us", &s.flush_us},
      {"parcore_publish_us", &s.publish_us},
      {"parcore_flush_batch_size", &s.batch_sizes},
  };
  for (const auto& [name, want] : pairs) {
    const obs::Histogram* got = histogram_row(rows, name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->count, s.epochs) << name;
    EXPECT_EQ(got->count, want->count) << name;
    EXPECT_EQ(got->sum, want->sum) << name;
    for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b)
      EXPECT_EQ(got->counts[b], want->counts[b]) << name << " bucket " << b;
  }
  EXPECT_EQ(s.batch_sizes.sum, next);
}

// Scrapes race running flushes: the arena gauges are read live from
// the graph (under its shard spinlocks) while a hub's adjacency grows
// slab by slab, so this runs clean under TSan and never sees a gauge
// or counter go backwards.
TEST(EngineMetrics, ExportDuringFlushesIsRaceFree) {
  test::Workload w = test::hub_workload(2000, 1500, 47);
  auto g = DynamicGraph::from_edges(w.n, w.base);
  ThreadTeam team(2);
  StreamingEngine::Options opts;
  opts.workers = 2;
  opts.flush_threshold = 64;
  opts.flush_interval_ms = 1.0;
  StreamingEngine eng(g, team, opts);
  eng.start();

  std::atomic<bool> done{false};
  std::size_t scrapes = 0;
  std::thread scraper([&] {
    std::int64_t last_bytes = 0;
    std::uint64_t last_publishes = 0;
    do {
      const obs::Rows rows = eng.metric_rows();
      const std::int64_t bytes =
          gauge_row(rows, "parcore_arena_reserved_bytes");
      const std::uint64_t publishes =
          counter_row(rows, "parcore_publishes_total");
      EXPECT_GE(bytes, last_bytes);
      EXPECT_GE(publishes, last_publishes);
      last_bytes = bytes;
      last_publishes = publishes;
      ++scrapes;
    } while (!done.load(std::memory_order_acquire));
  });
  for (const Edge& e : w.batch) eng.submit_insert(e.u, e.v);
  eng.stop();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes, 0u);
  const obs::Rows rows = eng.metric_rows();
  const GraphMemoryStats mem = g.memory_stats();
  EXPECT_EQ(gauge_row(rows, "parcore_arena_reserved_bytes"),
            static_cast<std::int64_t>(mem.arena_reserved_bytes));
  EXPECT_EQ(counter_row(rows, "parcore_publishes_total"), eng.stats().epochs);
  test::expect_cores_match(g, eng.snapshot()->materialize(),
                           "after scraped flushes");
}

}  // namespace
}  // namespace parcore
