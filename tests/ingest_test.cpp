// Admission-control semantics of the bounded ingest queue: FIFO and
// accounting invariants carried over from the unbounded queue, plus the
// cap/policy behaviours (shed / block / degrade) under racing
// producers, and the engine-level differential check that a shed run's
// accepted subset still decomposes correctly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "decomp/bz.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "gen/stream_adapter.h"
#include "graph/dynamic_graph.h"
#include "test_util.h"

namespace parcore {
namespace {

using engine::IngestQueue;
using engine::OverloadPolicy;
using engine::PushResult;
using engine::StreamingEngine;

GraphUpdate ins(VertexId u, VertexId v) {
  return GraphUpdate{Edge{u, v}, UpdateKind::kInsert};
}
GraphUpdate rem(VertexId u, VertexId v) {
  return GraphUpdate{Edge{u, v}, UpdateKind::kRemove};
}

IngestQueue::Options bounded(std::size_t cap, OverloadPolicy p,
                             std::size_t shards = 8) {
  IngestQueue::Options o;
  o.shards = shards;
  o.cap = cap;
  o.policy = p;
  return o;
}

// ------------------------------------------------- unbounded invariants

TEST(IngestCap, UncontendedBoundedQueueBehavesLikeUnbounded) {
  // Below the cap every policy is the fast path: FIFO per producer,
  // exact size accounting, drain empties.
  IngestQueue q(bounded(10000, OverloadPolicy::kBlock));
  for (VertexId i = 0; i < 1000; ++i) {
    const PushResult r = q.push(ins(i, i + 1));
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.prev, static_cast<std::size_t>(i));
    EXPECT_EQ(r.blocked_us, 0u);
  }
  EXPECT_EQ(q.approx_size(), 1000u);
  std::vector<GraphUpdate> out;
  EXPECT_EQ(q.drain(out), 1000u);
  ASSERT_EQ(out.size(), 1000u);
  for (VertexId i = 0; i < 1000; ++i) EXPECT_EQ(out[i].e.u, i);
  EXPECT_EQ(q.approx_size(), 0u);
  out.clear();
  EXPECT_EQ(q.drain(out), 0u);
  const auto adm = q.admission();
  EXPECT_EQ(adm.shed, 0u);
  EXPECT_EQ(adm.block_waits, 0u);
  EXPECT_EQ(adm.compacted, 0u);
}

// --------------------------------------------------------------- shed

TEST(IngestCap, ShedRejectsAtCapAndAccountsExactly) {
  IngestQueue q(bounded(16, OverloadPolicy::kShed));
  std::size_t accepted = 0, shed = 0;
  for (VertexId i = 0; i < 100; ++i) {
    if (q.push(ins(i, i + 1)).accepted)
      ++accepted;
    else
      ++shed;
  }
  // Single producer: the cap is exact, not just soft.
  EXPECT_EQ(accepted, 16u);
  EXPECT_EQ(shed, 84u);
  EXPECT_EQ(q.admission().shed, 84u);
  std::vector<GraphUpdate> out;
  EXPECT_EQ(q.drain(out), accepted);
  // The queue drained below the cap, so pushes are admitted again.
  EXPECT_TRUE(q.push(ins(0, 1)).accepted);
}

TEST(IngestCap, ShedUnderRacingProducersLosesOnlyWhatItReports) {
  constexpr int kThreads = 8, kPer = 4000;
  constexpr std::size_t kCap = 64;
  IngestQueue q(bounded(kCap, OverloadPolicy::kShed));
  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&q, &accepted, t] {
      std::size_t mine = 0;
      for (int i = 0; i < kPer; ++i)
        if (q.push(ins(static_cast<VertexId>(t),
                       static_cast<VertexId>(i + 100)))
                .accepted)
          ++mine;
      accepted.fetch_add(mine);
    });
  for (auto& th : threads) th.join();
  // No consumer ran, so everything accepted is still buffered: the cap
  // is a soft bound with overshoot at most one per racing producer.
  std::vector<GraphUpdate> out;
  const std::size_t drained = q.drain(out);
  EXPECT_EQ(drained, accepted.load());
  EXPECT_LE(drained, kCap + kThreads);
  EXPECT_EQ(accepted.load() + q.admission().shed,
            static_cast<std::size_t>(kThreads) * kPer);
}

// -------------------------------------------------------------- block

TEST(IngestCap, BlockParksProducerUntilDrain) {
  IngestQueue q(bounded(8, OverloadPolicy::kBlock));
  for (VertexId i = 0; i < 8; ++i) q.push(ins(i, i + 1));

  std::atomic<bool> done{false};
  PushResult blocked{};
  std::thread producer([&q, &done, &blocked] {
    blocked = q.push(ins(100, 101));
    done.store(true);
  });
  // The producer must be parked: the queue is at cap and nothing has
  // drained. Give it long enough that a broken non-blocking push would
  // certainly have finished.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());

  std::vector<GraphUpdate> out;
  EXPECT_EQ(q.drain(out), 8u);
  producer.join();
  EXPECT_TRUE(done.load());
  EXPECT_TRUE(blocked.accepted);
  EXPECT_GT(blocked.blocked_us, 0u);
  const auto adm = q.admission();
  EXPECT_GE(adm.block_waits, 1u);
  EXPECT_GT(adm.blocked_us, 0u);
  out.clear();
  EXPECT_EQ(q.drain(out), 1u);  // the formerly blocked push landed
}

TEST(IngestCap, CloseReleasesBlockedProducers) {
  IngestQueue q(bounded(4, OverloadPolicy::kBlock));
  for (VertexId i = 0; i < 4; ++i) q.push(ins(i, i + 1));
  std::thread producer([&q] {
    // Admitted despite the cap: close() disables admission so shutdown
    // stragglers cannot deadlock against a stopped scheduler.
    EXPECT_TRUE(q.push(ins(50, 51)).accepted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  std::vector<GraphUpdate> out;
  EXPECT_EQ(q.drain(out), 5u);
  q.open();
  EXPECT_FALSE(q.closed());
}

TEST(IngestCap, BlockWithConsumerDeliversEverything) {
  constexpr int kThreads = 8, kPer = 3000;
  IngestQueue q(bounded(32, OverloadPolicy::kBlock));
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&q, &running, t] {
      for (int i = 0; i < kPer; ++i)
        EXPECT_TRUE(q.push(ins(static_cast<VertexId>(t),
                               static_cast<VertexId>(i + 100)))
                        .accepted);
      running.fetch_sub(1);
    });
  std::vector<GraphUpdate> out;
  while (running.load() > 0) q.drain(out);
  for (auto& th : threads) th.join();
  q.drain(out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kThreads) * kPer);
  EXPECT_EQ(q.admission().shed, 0u);
}

// ------------------------------------------------------------ degrade

TEST(IngestCap, DegradeCompactionKeepsLastOpPerEdge) {
  // Single producer, duplicate-heavy: alternate insert/remove on a
  // small edge set far past the cap. Compaction must keep exactly the
  // last op of each edge, in order.
  IngestQueue q(bounded(8, OverloadPolicy::kDegrade, 1));
  constexpr VertexId kEdges = 6;
  constexpr int kRounds = 500;
  for (int r = 0; r < kRounds; ++r)
    for (VertexId e = 0; e < kEdges; ++e) {
      const bool insert = (r + e) % 2 == 0;
      EXPECT_TRUE(
          (insert ? q.push(ins(e, e + 100)) : q.push(rem(e, e + 100)))
              .accepted);
    }
  // Everything redundant was compacted away up to the amortization
  // floor: the shard re-compacts once it doubles past the survivor
  // count, so occupancy stays within 2x distinct + O(1).
  EXPECT_LE(q.approx_size(), 2u * kEdges + 17);
  EXPECT_GT(q.admission().compacted, 0u);
  std::vector<GraphUpdate> out;
  q.drain(out);
  std::unordered_map<VertexId, UpdateKind> last;
  for (const GraphUpdate& u : out) last[u.e.u] = u.kind;
  ASSERT_EQ(last.size(), static_cast<std::size_t>(kEdges));
  for (VertexId e = 0; e < kEdges; ++e) {
    // Final round is r = kRounds - 1 (odd): edge e last saw an insert
    // iff (kRounds - 1 + e) is even.
    const bool expect_insert = (kRounds - 1 + e) % 2 == 0;
    EXPECT_EQ(last[e] == UpdateKind::kInsert, expect_insert) << "edge " << e;
  }

  // Exact shape of one compaction: a shard holding interleaved ops on
  // four edges (some pushed reversed) compacts to exactly each edge's
  // last op, as pushed, in the original relative order. The 33rd push
  // is the first to find the queue at its cap of 32, so it compacts
  // the whole shard once.
  IngestQueue one(bounded(32, OverloadPolicy::kDegrade, 1));
  std::vector<GraphUpdate> pushed;
  for (VertexId i = 0; i < 33; ++i) {
    const VertexId a = 2 * ((i * 7 + i / 3) % 4);
    const GraphUpdate u = i % 5 == 0 ? rem(a + 1, a)
                          : i % 3 == 0 ? rem(a, a + 1)
                                       : ins(a, a + 1);
    pushed.push_back(u);
    EXPECT_TRUE(one.push(u).accepted);
  }
  std::vector<GraphUpdate> expect;
  for (std::size_t i = 0; i < pushed.size(); ++i) {
    bool superseded = false;
    for (std::size_t j = i + 1; j < pushed.size(); ++j)
      superseded |= edge_key(pushed[j].e) == edge_key(pushed[i].e);
    if (!superseded) expect.push_back(pushed[i]);
  }
  ASSERT_EQ(expect.size(), 4u);
  EXPECT_EQ(one.admission().compacted, pushed.size() - expect.size());
  EXPECT_EQ(one.approx_size(), expect.size());
  std::vector<GraphUpdate> kept;
  one.drain(kept);
  ASSERT_EQ(kept.size(), expect.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].e, expect[i].e) << "survivor " << i;
    EXPECT_EQ(kept[i].kind, expect[i].kind) << "survivor " << i;
  }
}

TEST(IngestCap, DegradeUnderRacingProducersBoundsDuplicateHeavyStreams) {
  // 8 producers, disjoint edge sets, duplicate-heavy. No consumer runs,
  // yet occupancy stays near the number of distinct edges because every
  // at-cap push first compacts its own shard.
  constexpr int kThreads = 8, kPer = 8, kRounds = 2000;
  constexpr std::size_t kCap = 64;
  IngestQueue q(bounded(kCap, OverloadPolicy::kDegrade));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&q, t] {
      const VertexId base = static_cast<VertexId>(t) * 1000;
      for (int r = 0; r < kRounds; ++r)
        for (int e = 0; e < kPer; ++e) {
          const VertexId u = base + static_cast<VertexId>(e);
          const bool insert = (r + e) % 2 == 0;
          EXPECT_TRUE((insert ? q.push(ins(u, u + 100))
                              : q.push(rem(u, u + 100)))
                          .accepted);
        }
    });
  for (auto& th : threads) th.join();
  const std::size_t distinct = static_cast<std::size_t>(kThreads) * kPer;
  // Occupancy bound, not exactness: compaction is amortized (a shard
  // re-compacts after doubling past its survivor floor), duplicates
  // accumulate freely while the queue dips under its cap, and a
  // producer that finishes during such a dip leaves its shard's dups
  // for no one to compact. The ceiling is still a small constant
  // multiple of the distinct count — far below the 128k ops pushed.
  EXPECT_LE(q.approx_size(), 2 * distinct + 16 * 8 + kCap + 2 * kThreads);
  EXPECT_GT(q.admission().compacted, 0u);
  EXPECT_EQ(q.admission().shed, 0u);

  // Per-producer last-op-wins survives compaction: edges are disjoint
  // across producers, so each edge's expected final op is determined by
  // its own producer's (FIFO) stream.
  std::vector<GraphUpdate> out;
  q.drain(out);
  std::unordered_map<VertexId, UpdateKind> last;
  for (const GraphUpdate& u : out) last[u.e.u] = u.kind;
  ASSERT_EQ(last.size(), distinct);
  for (int t = 0; t < kThreads; ++t)
    for (int e = 0; e < kPer; ++e) {
      const VertexId u = static_cast<VertexId>(t) * 1000 +
                         static_cast<VertexId>(e);
      const bool expect_insert = (kRounds - 1 + e) % 2 == 0;
      EXPECT_EQ(last[u] == UpdateKind::kInsert, expect_insert)
          << "producer " << t << " edge " << e;
    }
}

// --------------------------------------- engine-level shed differential

TEST(IngestCap, EngineShedAcceptedSubsetIsDifferentiallyCorrect) {
  // Overdrive a tiny engine with shed admission, record exactly which
  // submits were accepted, and check the served cores against a fresh
  // bz_decompose of the accepted subset's replay. Streams are
  // partitioned by edge, so each edge's op order lives inside one
  // producer and the accepted-subset graph is deterministic
  // (per-producer FIFO + drain-order coalescing).
  constexpr std::size_t kN = 64;
  constexpr int kProducers = 4;
  std::vector<GraphUpdate> ops;
  Rng rng(0xadu);
  for (int i = 0; i < 20000; ++i) {
    const VertexId u = static_cast<VertexId>(rng.bounded(kN));
    VertexId v = static_cast<VertexId>(rng.bounded(kN));
    if (u == v) v = (v + 1) % kN;
    ops.push_back(rng.bounded(4) == 0 ? rem(u, v) : ins(u, v));
  }
  const auto streams =
      partition_updates_by_edge(ops, static_cast<std::size_t>(kProducers));

  StreamingEngine::Options opts;
  opts.workers = 2;
  opts.flush_threshold = 64;
  opts.ingest_cap = 128;
  opts.overload = OverloadPolicy::kShed;
  DynamicGraph g(kN);
  ThreadTeam team(4);
  StreamingEngine eng(g, team, opts);
  eng.start();

  std::vector<std::vector<GraphUpdate>> accepted(streams.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < streams.size(); ++t)
    threads.emplace_back([&eng, &streams, &accepted, t] {
      for (const GraphUpdate& u : streams[t])
        if (eng.submit(u).accepted) accepted[t].push_back(u);
    });
  for (auto& th : threads) th.join();
  eng.stop();

  // Replay the accepted subset per producer; disjoint edge ownership
  // makes the union order-independent across producers.
  std::unordered_set<std::uint64_t> edges;
  for (const auto& s : accepted)
    for (const GraphUpdate& u : s) {
      if (u.kind == UpdateKind::kInsert)
        edges.insert(edge_key(u.e));
      else
        edges.erase(edge_key(u.e));
    }
  std::vector<Edge> final_edges;
  for (const auto& s : accepted)
    for (const GraphUpdate& u : s)
      if (edges.count(edge_key(u.e)) != 0) {
        final_edges.push_back(canonical(u.e));
        edges.erase(edge_key(u.e));
      }
  DynamicGraph fresh = DynamicGraph::from_edges(kN, final_edges);
  const Decomposition expect = bz_decompose(fresh);
  auto snap = eng.snapshot();
  ASSERT_EQ(fresh.num_edges(), g.num_edges());
  const std::vector<CoreValue> got = snap->materialize();
  for (VertexId v = 0; v < static_cast<VertexId>(kN); ++v)
    ASSERT_EQ(got[v], expect.core[v]) << "vertex " << v;

  const auto adm = eng.stats().admission;
  EXPECT_GT(adm.shed, 0u) << "test should actually overload the engine";
}

}  // namespace
}  // namespace parcore
