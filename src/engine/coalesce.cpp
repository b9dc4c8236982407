#include "engine/coalesce.h"

#include <algorithm>
#include <bit>

namespace parcore::engine {

LastOpTable::LastOpTable(std::size_t max_edges)
    : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_edges, 2))),
      shift_(64 - std::countr_zero(slots_.size())) {
  runs_.reserve(max_edges);
}

void LastOpTable::add(const GraphUpdate& u, std::uint32_t i) {
  const std::uint64_t key = edge_key(u.e);
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the top bits of the product mix both endpoints.
  auto s = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  while (slots_[s] != 0 && runs_[slots_[s] - 1].key != key)
    s = (s + 1) & mask;
  if (slots_[s] == 0) {
    runs_.push_back(EdgeRun{key, i, i, 0, 0});
    slots_[s] = static_cast<std::uint32_t>(runs_.size());
  }
  EdgeRun& r = runs_[slots_[s] - 1];
  r.last = i;
  if (u.kind == UpdateKind::kInsert)
    ++r.inserts;
  else
    ++r.removes;
}

CoalescedBatch coalesce(std::span<const GraphUpdate> updates,
                        const DynamicGraph& g) {
  CoalescedBatch out;
  out.stats.raw = updates.size();

  const auto n = static_cast<VertexId>(g.num_vertices());
  // Runs come out in first-seen order, so emitted batches are
  // deterministic for a fixed drain order.
  LastOpTable table(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const Edge e = updates[i].e;
    if (e.u == e.v || e.u >= n || e.v >= n) {
      ++out.stats.rejected;
      continue;
    }
    table.add(updates[i], static_cast<std::uint32_t>(i));
  }

  for (const EdgeRun& r : table.runs()) {
    // The last op is the winner; the c-1 earlier ops are redundant.
    // Among those, opposing kinds annihilate in pairs and the rest are
    // duplicates, so per key: c = 1 + 2*pairs + duplicates.
    const bool want_present = updates[r.last].kind == UpdateKind::kInsert;
    std::uint32_t ins = r.inserts, rem = r.removes;
    if (want_present)
      --ins;
    else
      --rem;
    const auto pairs = static_cast<std::size_t>(std::min(ins, rem));
    out.stats.annihilated_pairs += pairs;
    out.stats.duplicates += ins + rem - 2 * pairs;

    const Edge e{static_cast<VertexId>(r.key >> 32),
                 static_cast<VertexId>(r.key & 0xffffffffu)};
    if (want_present == g.has_edge(e.u, e.v)) {
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
