#include "decomp/parallel_peel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

namespace parcore {

namespace {

// Single-worker specialization of exact_peel: the identical algorithm
// (same frontiers, same sub-round structure, same order) with plain
// loads/stores instead of atomics and no team dispatch. One thread
// never races, so every `lock`-prefixed RMW and barrier in the generic
// path is pure overhead — dropping them is what lets the peel beat
// BZ's bucket maintenance (which pays 3-4 random writes per decrement
// to keep pos/vert/bin coherent; the frontier peel writes only deg).
BulkDecomposition exact_peel_seq(const DynamicGraph& g) {
  BulkDecomposition out;
  const std::size_t n = g.num_vertices();
  out.core.assign(n, 0);
  if (n == 0) return out;
  out.order.reserve(n);

  std::vector<std::int64_t> deg(n);
  for (std::size_t v = 0; v < n; ++v)
    deg[v] = static_cast<std::int64_t>(g.degree(v));

  std::vector<VertexId> frontier, next;
  frontier.reserve(256);
  next.reserve(256);

  std::size_t processed = 0;
  CoreValue level = 0;
  while (processed < n) {
    frontier.clear();
    for (std::size_t v = 0; v < n; ++v)
      if (deg[v] >= 0 && deg[v] <= level)
        frontier.push_back(static_cast<VertexId>(v));

    while (!frontier.empty()) {
      out.order.insert(out.order.end(), frontier.begin(), frontier.end());
      processed += frontier.size();
      ++out.rounds;
      next.clear();
      for (const VertexId v : frontier) {
        deg[v] = -1;
        out.core[v] = level;
        for (VertexId u : g.neighbors(v)) {
          const std::int64_t du = deg[u];
          if (du <= level) continue;  // claimed (-1) or already peelable
          deg[u] = du - 1;
          if (du - 1 == level) next.push_back(u);
        }
      }
      frontier.swap(next);
      std::sort(frontier.begin(), frontier.end());
    }
    ++level;
  }
  out.max_core = level > 0 ? level - 1 : 0;
  return out;
}

// Level-synchronous frontier peeling (the ParK/PKC scheme) that also
// records the peel order. Vertices are appended to `order` one
// frontier at a time — (level, sub-round, id) — before the frontier is
// processed. Frontier membership is deterministic regardless of worker
// count: the set of degree decrements inside one sub-round is fixed by
// the frontier (a barrier separates sub-rounds), so the set of vertices
// whose degree lands exactly on `level` is fixed too; sorting each
// frontier by id then pins the sequence completely.
BulkDecomposition exact_peel(const DynamicGraph& g, ThreadTeam& team,
                             int workers) {
  BulkDecomposition out;
  const std::size_t n = g.num_vertices();
  out.core.assign(n, 0);
  if (n == 0) return out;
  out.order.reserve(n);

  auto deg = std::make_unique<std::atomic<std::int64_t>[]>(n);
  parallel_for(team, workers, 0, n, [&](std::size_t v) {
    deg[v].store(static_cast<std::int64_t>(g.degree(v)),
                 std::memory_order_relaxed);
  });

  // Per-worker buffers: `local_scan` collects the level's initial
  // frontier from contiguous id stripes (concatenating them in worker
  // order keeps the frontier id-sorted with no sort); `local_next`
  // collects cascade discoveries (merged + sorted before the next
  // sub-round).
  const auto max_workers = static_cast<std::size_t>(team.max_workers());
  std::vector<std::vector<VertexId>> local_scan(max_workers);
  std::vector<std::vector<VertexId>> local_next(max_workers);
  std::vector<VertexId> frontier;
  frontier.reserve(256);

  std::size_t processed = 0;
  CoreValue level = 0;
  while (processed < n) {
    // Initial frontier: all unprocessed v with deg <= level (deg is -1
    // once claimed). Striped scan, stripes concatenated in id order.
    const std::size_t stripe =
        (n + static_cast<std::size_t>(workers) - 1) /
        static_cast<std::size_t>(workers);
    team.run(workers, [&](int w) {
      auto& local = local_scan[static_cast<std::size_t>(w)];
      local.clear();
      const std::size_t begin = static_cast<std::size_t>(w) * stripe;
      const std::size_t end = std::min(n, begin + stripe);
      for (std::size_t v = begin; v < end; ++v) {
        const std::int64_t dv = deg[v].load(std::memory_order_relaxed);
        if (dv >= 0 && dv <= level)
          local.push_back(static_cast<VertexId>(v));
      }
    });
    frontier.clear();
    for (int w = 0; w < workers; ++w) {
      auto& local = local_scan[static_cast<std::size_t>(w)];
      frontier.insert(frontier.end(), local.begin(), local.end());
      local.clear();
    }

    while (!frontier.empty()) {
      // The whole frontier is claimed this sub-round; its id-sorted
      // sequence is the next run of the peel order.
      out.order.insert(out.order.end(), frontier.begin(), frontier.end());
      processed += frontier.size();
      ++out.rounds;

      std::atomic<std::size_t> next_index{0};
      team.run(workers, [&](int w) {
        auto& next = local_next[static_cast<std::size_t>(w)];
        for (;;) {
          const std::size_t i =
              next_index.fetch_add(1, std::memory_order_relaxed);
          if (i >= frontier.size()) break;
          const VertexId v = frontier[i];
          // Claim v (deg -> -1). Every vertex enters exactly one
          // frontier, so the CAS cannot lose; guard anyway.
          std::int64_t dv = deg[v].load(std::memory_order_relaxed);
          if (dv < 0) continue;
          if (!deg[v].compare_exchange_strong(dv, -1,
                                              std::memory_order_acq_rel))
            continue;
          out.core[v] = level;
          for (VertexId u : g.neighbors(v)) {
            // Decrement deg[u] unless already <= level or claimed.
            std::int64_t du = deg[u].load(std::memory_order_relaxed);
            for (;;) {
              if (du <= level) break;  // claimed (-1) or already peelable
              if (deg[u].compare_exchange_weak(du, du - 1,
                                               std::memory_order_acq_rel)) {
                if (du - 1 == level) next.push_back(u);
                break;
              }
            }
          }
        }
      });
      frontier.clear();
      for (auto& next : local_next) {
        frontier.insert(frontier.end(), next.begin(), next.end());
        next.clear();
      }
      std::sort(frontier.begin(), frontier.end());
    }
    ++level;
  }
  out.max_core = level > 0 ? level - 1 : 0;
  return out;
}

}  // namespace

BulkDecomposition parallel_decompose(const DynamicGraph& g, ThreadTeam& team,
                                     int workers) {
  // Clamp to the team AND the machine: threads beyond the hardware only
  // timeshare, so every extra worker adds atomic/barrier cost and buys
  // zero parallelism. The result is worker-count independent (see
  // exact_peel), so the clamp changes cost only, never output.
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  workers = std::max(1, std::min({workers, team.max_workers(), hw}));
  return workers == 1 ? exact_peel_seq(g) : exact_peel(g, team, workers);
}

}  // namespace parcore
