// BZ core decomposition (paper Algorithm 1, Batagelj–Zaveršnik): linear
// O(n + m) bucket peeling producing both core numbers and the peel
// order, which *defines* the k-order the maintainers start from
// (Definition 3.5).
#pragma once

#include <vector>

#include "graph/dynamic_graph.h"
#include "support/types.h"

namespace parcore {

struct Decomposition {
  std::vector<CoreValue> core;
  /// Vertices in peel order (a valid k-order instance: non-decreasing
  /// core numbers; within one core value, BZ dequeue order).
  std::vector<VertexId> peel_order;
  CoreValue max_core = 0;
};

/// Classic array-based BZ: buckets by current degree, vertices initially
/// sorted by degree, O(n + m). Ties resolve toward small initial degree
/// ("small degree first", the strategy the paper selects in §3.3.1).
Decomposition bz_decompose(const DynamicGraph& g);

}  // namespace parcore
