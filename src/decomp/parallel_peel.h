// Parallel bulk core decomposition (DESIGN.md §12): the multi-threaded
// exact decomposition behind the serving re-verifier, crash recovery
// verification and `parcore_cli decompose --algo parallel`. Maintenance
// state is built from BZ (CoreState::initialize); a peel image can be
// installed too (CoreState::install), since its order is a k-order.
//
// Level-synchronous frontier peeling (the ParK/PKC family) that
// additionally records the peel order: vertices are appended frontier
// by frontier — (level, sub-round, vertex id) — which is a valid
// k-order instance (proof sketch in DESIGN.md §12.2). Core numbers are
// bit-identical to bz_decompose; the order is deterministic across
// worker counts and schedules, so differential tests and restarts see
// one canonical result.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/dynamic_graph.h"
#include "support/types.h"
#include "sync/thread_team.h"

namespace parcore {

struct BulkDecomposition {
  std::vector<CoreValue> core;
  /// A valid k-order instance (non-decreasing core numbers,
  /// dout(v) <= core(v) along it) — installable with CoreState::install.
  std::vector<VertexId> order;
  CoreValue max_core = 0;
  /// Frontier sub-rounds executed.
  std::size_t rounds = 0;
};

/// Decomposes `g` on `team` with `workers` threads (clamped to the team
/// and the hardware). Deterministic for a given graph regardless of
/// worker count.
BulkDecomposition parallel_decompose(const DynamicGraph& g, ThreadTeam& team,
                                     int workers);

}  // namespace parcore
