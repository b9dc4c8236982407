#include "graph/dynamic_graph.h"

#include <algorithm>
#include <cstring>

namespace parcore {

DynamicGraph::DynamicGraph(std::size_t n, SlabStore::Options store_opts)
    : verts_(n), store_(store_opts) {}

DynamicGraph::DynamicGraph(const DynamicGraph& other)
    : verts_(), store_(other.store_.options()) {
  assign_compact_from(other);
}

DynamicGraph& DynamicGraph::operator=(const DynamicGraph& other) {
  if (this == &other) return *this;
  // Rebuild into a fresh arena: the old one holds live slab pointers
  // and can only be released wholesale.
  store_ = SlabStore(other.store_.options());
  verts_.clear();
  assign_compact_from(other);
  return *this;
}

DynamicGraph::DynamicGraph(DynamicGraph&& other) noexcept
    : verts_(std::move(other.verts_)),
      store_(std::move(other.store_)),
      num_edges_(other.num_edges()) {
  other.verts_.clear();
  other.num_edges_.store(0, std::memory_order_relaxed);
}

DynamicGraph& DynamicGraph::operator=(DynamicGraph&& other) noexcept {
  verts_ = std::move(other.verts_);
  store_ = std::move(other.store_);
  num_edges_.store(other.num_edges(), std::memory_order_relaxed);
  other.verts_.clear();
  other.num_edges_.store(0, std::memory_order_relaxed);
  return *this;
}

void DynamicGraph::assign_compact_from(const DynamicGraph& other) {
  verts_.resize(other.verts_.size());
  for (VertexId u = 0; u < other.verts_.size(); ++u) {
    const VertexRec& src = other.verts_[u];
    VertexRec& dst = verts_[u];
    dst.degree = src.degree;
    dst.hi = src.hi;  // entries keep their order, so the prefix carries over
    if (src.degree <= kInlineDegree) {
      dst.slab = nullptr;
      std::memcpy(dst.inline_storage, data(src),
                  src.degree * sizeof(VertexId));
    } else {
      // Exact-class slab: successive allocations bump linearly through
      // fresh chunks, so the copy is a sequential arena fill.
      const std::size_t cls = SlabStore::size_class(src.degree);
      dst.slab = store_.allocate(cls, u);
      dst.inline_storage[0] =
          static_cast<std::uint32_t>(SlabStore::class_entries(cls));
      std::memcpy(dst.slab, src.slab, src.degree * sizeof(VertexId));
    }
  }
  num_edges_.store(other.num_edges(), std::memory_order_relaxed);
}

DynamicGraph DynamicGraph::from_edges(std::size_t n,
                                      std::span<const Edge> edges,
                                      SlabStore::Options store_opts) {
  DynamicGraph g(n, store_opts);
  // Pass 1: exact degree count (duplicates still included — they only
  // over-reserve within one size class and are dropped below).
  std::vector<std::uint32_t> deg(n, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    if (e.u >= n || e.v >= n) continue;
    ++deg[e.u];
    ++deg[e.v];
  }
  for (VertexId v = 0; v < n; ++v) g.reserve_degree(v, deg[v]);

  // Pass 2: fill (no relocation possible), then sort+unique each list.
  // O(m log d), avoiding the per-edge has_edge scan.
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    if (e.u >= n || e.v >= n) continue;
    g.append(e.u, e.v, false);
    g.append(e.v, e.u, false);
  }
  std::size_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    VertexRec& r = g.verts_[v];
    VertexId* p = data(r);
    std::sort(p, p + r.degree);
    r.degree = static_cast<std::uint32_t>(std::unique(p, p + r.degree) - p);
    degree_sum += r.degree;
  }
  g.num_edges_.store(degree_sum / 2, std::memory_order_relaxed);
  return g;
}

void DynamicGraph::reserve_degree(VertexId u, std::size_t entries) {
  if (entries > capacity(verts_[u])) grow(u, entries);
}

void DynamicGraph::grow(VertexId u, std::size_t min_capacity) {
  VertexRec& r = verts_[u];
  const std::size_t cls = SlabStore::size_class(min_capacity);
  VertexId* slab = store_.allocate(cls, u);
  std::memcpy(slab, data(r), r.degree * sizeof(VertexId));
  if (r.slab != nullptr)
    store_.deallocate(r.slab, SlabStore::size_class(capacity(r)), u);
  r.slab = slab;
  r.inline_storage[0] =
      static_cast<std::uint32_t>(SlabStore::class_entries(cls));
}

void DynamicGraph::append(VertexId u, VertexId v, bool in_prefix) {
  VertexRec& r = verts_[u];
  if (r.degree == capacity(r)) grow(u, r.degree + 1);
  VertexId* p = data(r);
  p[r.degree++] = v;
  if (in_prefix) std::swap(p[r.hi++], p[r.degree - 1]);
}

bool DynamicGraph::has_edge(VertexId u, VertexId v) const {
  if (u == v || u >= verts_.size() || v >= verts_.size()) return false;
  // Scan the smaller-degree endpoint.
  if (verts_[u].degree > verts_[v].degree) std::swap(u, v);
  const auto list = neighbors(u);
  return std::find(list.begin(), list.end(), v) != list.end();
}

bool DynamicGraph::insert_edge(VertexId u, VertexId v) {
  if (u == v || u >= verts_.size() || v >= verts_.size()) return false;
  if (has_edge(u, v)) return false;
  insert_edge_unchecked(u, v);
  return true;
}

void DynamicGraph::insert_edge_unchecked(VertexId u, VertexId v,
                                         bool v_in_prefix_of_u,
                                         bool u_in_prefix_of_v) {
  append(u, v, v_in_prefix_of_u);
  append(v, u, u_in_prefix_of_v);
  num_edges_.fetch_add(1, std::memory_order_relaxed);
}

bool DynamicGraph::erase_from(VertexId u, VertexId x) {
  VertexRec& r = verts_[u];
  VertexId* p = data(r);
  VertexId* end = p + r.degree;
  VertexId* it = std::find(p, end, x);
  if (it == end) return false;
  // Fill the hole from the end of its part; a prefix hole hands the
  // prefix's last slot on to the list's last entry.
  if (it < p + r.hi) {
    *it = p[r.hi - 1];
    it = p + --r.hi;
  }
  *it = end[-1];
  --r.degree;
  return true;
}

bool DynamicGraph::remove_edge(VertexId u, VertexId v) {
  if (u == v || u >= verts_.size() || v >= verts_.size()) return false;
  if (!erase_from(u, v)) return false;
  erase_from(v, u);
  num_edges_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::size_t DynamicGraph::max_degree() const {
  std::size_t best = 0;
  for (const VertexRec& r : verts_) best = std::max<std::size_t>(best, r.degree);
  return best;
}

std::vector<Edge> DynamicGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < verts_.size(); ++u)
    for (VertexId v : neighbors(u))
      if (u < v) out.push_back(Edge{u, v});
  return out;
}

GraphMemoryStats DynamicGraph::memory_stats() const {
  GraphMemoryStats out;
  out.num_vertices = verts_.size();
  out.num_edges = num_edges();
  out.header_bytes = verts_.capacity() * sizeof(VertexRec);
  for (const VertexRec& r : verts_) {
    if (r.slab == nullptr) {
      ++out.inline_vertices;
    } else {
      out.slab_used_bytes += r.degree * sizeof(VertexId);
      out.slab_capacity_bytes += capacity(r) * sizeof(VertexId);
    }
  }
  const SlabStoreStats arena = store_.stats();
  out.arena_reserved_bytes = arena.reserved_bytes;
  out.freelist_bytes = arena.freelist_bytes;
  out.chunk_count = arena.chunk_count + arena.jumbo_count;
  return out;
}

}  // namespace parcore
