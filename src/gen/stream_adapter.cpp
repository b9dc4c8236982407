#include "gen/stream_adapter.h"

#include <deque>

namespace parcore {

std::vector<GraphUpdate> sliding_window_updates(std::span<const Edge> stream,
                                                std::size_t window) {
  std::vector<GraphUpdate> ops;
  ops.reserve(window == 0 ? stream.size() : 2 * stream.size());
  std::deque<Edge> live;
  for (const Edge& e : stream) {
    ops.push_back(GraphUpdate{e, UpdateKind::kInsert});
    if (window == 0) continue;
    live.push_back(e);
    if (live.size() > window) {
      ops.push_back(GraphUpdate{live.front(), UpdateKind::kRemove});
      live.pop_front();
    }
  }
  return ops;
}

std::vector<std::vector<GraphUpdate>> partition_updates_by_edge(
    std::span<const GraphUpdate> ops, std::size_t parts) {
  if (parts == 0) parts = 1;
  std::vector<std::vector<GraphUpdate>> out(parts);
  for (const GraphUpdate& op : ops) {
    // EdgeHash is canonical-key based, so (u,v) and (v,u) land together.
    out[EdgeHash{}(op.e) % parts].push_back(op);
  }
  return out;
}

}  // namespace parcore
