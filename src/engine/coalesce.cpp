#include "engine/coalesce.h"

#include <algorithm>
#include <unordered_map>

namespace parcore::engine {

namespace {

struct KeyInfo {
  std::uint32_t inserts = 0;
  std::uint32_t removes = 0;
  UpdateKind last{UpdateKind::kInsert};
};

}  // namespace

CoalescedBatch coalesce(std::span<const GraphUpdate> updates,
                        const DynamicGraph& g) {
  CoalescedBatch out;
  out.stats.raw = updates.size();

  const auto n = static_cast<VertexId>(g.num_vertices());
  std::unordered_map<std::uint64_t, KeyInfo> keys;
  keys.reserve(updates.size());
  // First-seen order of keys, so emitted batches are deterministic for a
  // fixed drain order (helps tests and replay debugging).
  std::vector<std::uint64_t> order;
  order.reserve(updates.size());

  for (const GraphUpdate& u : updates) {
    if (u.e.u == u.e.v || u.e.u >= n || u.e.v >= n) {
      ++out.stats.rejected;
      continue;
    }
    auto [it, fresh] = keys.try_emplace(edge_key(u.e));
    if (fresh) order.push_back(it->first);
    KeyInfo& info = it->second;
    if (u.kind == UpdateKind::kInsert)
      ++info.inserts;
    else
      ++info.removes;
    info.last = u.kind;
  }

  for (std::uint64_t key : order) {
    const KeyInfo& info = keys.find(key)->second;
    // The last op is the winner; the c-1 earlier ops are redundant.
    // Among those, opposing kinds annihilate in pairs and the rest are
    // duplicates, so per key: c = 1 + 2*pairs + duplicates.
    std::uint32_t ins = info.inserts, rem = info.removes;
    if (info.last == UpdateKind::kInsert)
      --ins;
    else
      --rem;
    const auto pairs = static_cast<std::size_t>(std::min(ins, rem));
    out.stats.annihilated_pairs += pairs;
    out.stats.duplicates += ins + rem - 2 * pairs;

    const Edge e{static_cast<VertexId>(key >> 32),
                 static_cast<VertexId>(key & 0xffffffffu)};
    const bool present = g.has_edge(e.u, e.v);
    const bool want_present = info.last == UpdateKind::kInsert;
    if (want_present == present) {
      ++out.stats.noops;
      continue;
    }
    if (want_present)
      out.inserts.push_back(e);
    else
      out.removes.push_back(e);
  }
  return out;
}

}  // namespace parcore::engine
