#include "decomp/bz.h"

#include <algorithm>

namespace parcore {

Decomposition bz_decompose(const DynamicGraph& g) {
  const std::size_t n = g.num_vertices();
  Decomposition d;
  d.core.assign(n, 0);
  d.peel_order.reserve(n);
  if (n == 0) return d;

  std::vector<std::uint32_t> deg(n);
  std::size_t max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = static_cast<std::uint32_t>(g.degree(v));
    max_deg = std::max<std::size_t>(max_deg, deg[v]);
  }

  // Counting sort of vertices by degree. bin[d] = start of bucket d.
  std::vector<std::size_t> bin(max_deg + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[deg[v]];
  std::size_t start = 0;
  for (std::size_t dd = 0; dd <= max_deg; ++dd) {
    std::size_t count = bin[dd];
    bin[dd] = start;
    start += count;
  }

  std::vector<VertexId> vert(n);
  std::vector<std::size_t> pos(n);
  for (VertexId v = 0; v < n; ++v) {
    pos[v] = bin[deg[v]]++;
    vert[pos[v]] = v;
  }
  for (std::size_t dd = max_deg; dd >= 1; --dd) bin[dd] = bin[dd - 1];
  bin[0] = 0;

  // Peel in place; vert becomes the peel order.
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = vert[i];
    d.core[v] = static_cast<CoreValue>(deg[v]);
    if (d.core[v] > d.max_core) d.max_core = d.core[v];
    for (VertexId u : g.neighbors(v)) {
      if (deg[u] > deg[v]) {
        // Swap u with the first vertex of its bucket, then shrink bucket.
        const std::size_t du = deg[u];
        const std::size_t pu = pos[u];
        const std::size_t pw = bin[du];
        const VertexId w = vert[pw];
        if (u != w) {
          std::swap(vert[pu], vert[pw]);
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --deg[u];
      }
    }
  }
  d.peel_order = std::move(vert);
  return d;
}

}  // namespace parcore
