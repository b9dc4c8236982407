// The layer replay behind every workload's per-layer metrics.
//
// A workload's update sequence, cut into the flushes it ran as, is
// pushed through each layer's public entry point on the benchmark
// thread, in the order the streaming engine's flush uses them:
//
//   IngestQueue::push/drain -> engine::coalesce -> Manager::log_flush
//   -> remove_batch/insert_batch -> VersionedCoreIndex::publish
//
// plus a SeqOrderMaintainer fed the same coalesced batches (the
// sequential control, for at most the measured phase's length) and
// point reads of each published view. Every
// call is timed on its own, so each layer gets a number even where the
// workload's end-to-end path skips it (the batch workloads never touch
// ingest, coalesce or durability; burst runs without a WAL).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common.h"
#include "sync/thread_team.h"
#include "support/types.h"

namespace e2e {

struct ReplayPlan {
  std::size_t n = 0;                      // vertices
  std::span<const parcore::Edge> base;    // initial graph
  /// The update sequence in drain order, one update per call.
  std::function<parcore::GraphUpdate()> next;
  /// Raw updates per flush, in order.
  std::vector<std::size_t> cuts;
  /// Maintainer workers per flush (parallel to `cuts`). Flushes at one
  /// worker give the 1-worker metrics; the rest the multi-worker ones.
  std::vector<int> workers;
  /// Leading flushes that run through every layer but are left out of
  /// the metrics: a fresh maintainer's first batches pay page faults
  /// and cold caches.
  std::size_t warmup = 0;
};

/// Runs the replay, adds the per-layer metrics it measures to `report`
/// and checks the sequential control against the parallel maintainer.
/// Returns the parallel maintainer's final core numbers. `team` must
/// serve the largest entry of plan.workers.
std::vector<parcore::CoreValue> replay_layers(const Config& cfg,
                                              const ReplayPlan& plan,
                                              parcore::ThreadTeam& team,
                                              Report& report, Spans& spans);

}  // namespace e2e
