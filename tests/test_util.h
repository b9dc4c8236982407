// Shared helpers for parcore tests: graph construction, differential
// oracles and randomized workloads.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "decomp/verify.h"
#include "graph/dynamic_graph.h"
#include "support/rng.h"
#include "support/types.h"
#include "sync/spinlock.h"

namespace parcore::test {

inline DynamicGraph make_graph(std::size_t n,
                               std::initializer_list<Edge> edges) {
  std::vector<Edge> v(edges);
  return DynamicGraph::from_edges(n, v);
}

/// Expects `cores` to match a brute-force decomposition of g.
inline void expect_cores_match(const DynamicGraph& g,
                               const std::vector<CoreValue>& cores,
                               const std::string& context) {
  std::string err;
  ASSERT_TRUE(verify_cores(g, cores, &err)) << context << ": " << err;
}

/// Random-graph families used by the parameterized differential sweeps.
enum class Family { kEr, kBa, kRmat, kClique, kPath, kStar };

inline const char* family_name(Family f) {
  switch (f) {
    case Family::kEr: return "er";
    case Family::kBa: return "ba";
    case Family::kRmat: return "rmat";
    case Family::kClique: return "clique";
    case Family::kPath: return "path";
    case Family::kStar: return "star";
  }
  return "?";
}

std::vector<Edge> family_edges(Family f, std::size_t n, Rng& rng);

/// Splits the edge set of a random graph into (base, batch): the batch
/// is removed from the initial graph and used for insertion/removal
/// experiments (the paper's protocol).
struct Workload {
  std::size_t n = 0;
  std::vector<Edge> base;
  std::vector<Edge> batch;
};

Workload make_workload(Family f, std::size_t n, double batch_fraction,
                       std::uint64_t seed);

/// A hub-only batch: every batch edge joins vertex 0 to a vertex it is
/// not adjacent to in `base` (an ER graph with 4n edges), so all of
/// them compete for one endpoint lock. `spokes` < n.
Workload hub_workload(std::size_t n, std::size_t spokes, std::uint64_t seed);

/// Runs `batch` on a helper thread (a team's worker 0 is the calling
/// thread) while `held` stays locked for 20 ms after it starts: every
/// edge claimed in that window finds the lock taken.
template <typename Fn>
void run_while_locked(Spinlock& held, Fn&& batch) {
  held.lock();
  std::atomic<bool> started{false};
  std::thread t([&] {
    started.store(true, std::memory_order_release);
    batch();
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  held.unlock();
  t.join();
}

/// A graph plus one edge to insert. The two cases below pin the rules
/// of the d*in counter in Backward (DESIGN.md §3.1); both maintainers
/// run them.
struct InsertCase {
  std::size_t n = 0;
  std::vector<Edge> edges;
  Edge insert;
  std::vector<CoreValue> cores_after;
};

/// A Backward origin with a queued core-k successor: origin 1 runs
/// Backward while 2 waits with d*in 3 (from 0, 5, 4). Uncounting 2 for
/// the origin, which never joined V*, drops it to 2, so 2 turns
/// Backward and evicts 0, 4 and 5 instead of joining them in core 3.
InsertCase backward_origin_case();

/// A candidate whose V* predecessor Backward evicts before the
/// candidate is dequeued: 0 forwards to 1, 2 and 3, then Backward from
/// 1 evicts 0. Without the DoPost decrement 2 keeps 0's stale count,
/// runs Backward and folds it into d+out(2), which ends one too high.
InsertCase evicted_predecessor_case();

}  // namespace parcore::test
