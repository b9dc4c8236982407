#include "test_util.h"

#include "gen/generators.h"
#include "graph/edge_list.h"

namespace parcore::test {

std::vector<Edge> family_edges(Family f, std::size_t n, Rng& rng) {
  switch (f) {
    case Family::kEr:
      return gen_erdos_renyi(n, n * 4, rng);
    case Family::kBa:
      return gen_barabasi_albert(n, 4, rng);
    case Family::kRmat: {
      unsigned bits = 1;
      while ((std::size_t{1} << bits) < n) ++bits;
      return gen_rmat(bits, n * 4, RmatParams{}, rng);
    }
    case Family::kClique:
      return gen_clique(std::min<std::size_t>(n, 40));
    case Family::kPath: {
      std::vector<Edge> e;
      for (VertexId v = 0; v + 1 < n; ++v)
        e.push_back(Edge{v, static_cast<VertexId>(v + 1)});
      return e;
    }
    case Family::kStar:
      return gen_star(n);
  }
  return {};
}

Workload make_workload(Family f, std::size_t n, double batch_fraction,
                       std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  std::vector<Edge> edges = family_edges(f, n, rng);
  canonicalize_edges(edges);
  rng.shuffle(edges);
  // Vertex universe: at least n (rmat may exceed it).
  std::size_t max_v = n;
  for (const Edge& e : edges)
    max_v = std::max<std::size_t>(max_v, std::max(e.u, e.v) + 1);
  w.n = max_v;
  const std::size_t cut =
      static_cast<std::size_t>(static_cast<double>(edges.size()) *
                               batch_fraction);
  w.batch.assign(edges.begin(), edges.begin() + cut);
  w.base.assign(edges.begin() + cut, edges.end());
  return w;
}

Workload hub_workload(std::size_t n, std::size_t spokes,
                      std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.n = n;
  w.base = gen_erdos_renyi(n, n * 4, rng);
  canonicalize_edges(w.base);
  std::vector<bool> adjacent(n, false);
  adjacent[0] = true;
  for (const Edge& e : w.base) {
    if (e.u == 0) adjacent[e.v] = true;
    if (e.v == 0) adjacent[e.u] = true;
  }
  for (VertexId x = 1; x < n && w.batch.size() < spokes; ++x)
    if (!adjacent[x]) w.batch.push_back(Edge{0, x});
  rng.shuffle(w.batch);
  return w;
}

InsertCase backward_origin_case() {
  // Vertex 3 is a pendant (core 1); the rest is a 2-core around hub 2.
  // Inserting (5, 0) closes the K4 {0, 2, 4, 5}.
  return InsertCase{7,
                    {{4, 1}, {2, 0}, {2, 3}, {1, 2}, {2, 4},
                     {5, 4}, {6, 1}, {0, 4}, {5, 2}, {2, 6}},
                    {5, 0},
                    {3, 2, 3, 1, 3, 3, 2}};
}

InsertCase evicted_predecessor_case() {
  // The 4-cycle 0-1-3-2 plus the chord (0, 3): no core changes.
  return InsertCase{4, {{1, 0}, {0, 2}, {3, 2}, {3, 1}}, {0, 3},
                    {2, 2, 2, 2}};
}

}  // namespace parcore::test
