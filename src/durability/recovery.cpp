#include "durability/recovery.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "decomp/bz.h"
#include "decomp/parallel_peel.h"
#include "durability/manager.h"
#include "durability/wal.h"
#include "io/io_error.h"
#include "io/pcg.h"
#include "maint/core_state.h"
#include "support/timer.h"

namespace parcore::durability {

using io::IoError;

VerifyOutcome verify_recovered_cores(const DynamicGraph& g,
                                     const std::vector<CoreValue>& cores,
                                     VerifyAlgo algo, ThreadTeam& team,
                                     int workers) {
  VerifyOutcome out;
  WallTimer timer;
  std::vector<CoreValue> truth;
  switch (algo) {
    case VerifyAlgo::kBz:
      out.algo = "bz";
      truth = bz_decompose(g).core;
      break;
    case VerifyAlgo::kParallel:
      out.algo = "parallel";
      truth = parallel_decompose(g, team, workers).core;
      break;
  }

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cores[v] == truth[v]) continue;
    if (out.mismatches == 0)
      out.first_mismatch =
          "core(" + std::to_string(v) + ") = " + std::to_string(cores[v]) +
          " but " + out.algo + " decomposition says " +
          std::to_string(truth[v]);
    ++out.mismatches;
  }
  out.passed = out.mismatches == 0;
  out.ms = timer.elapsed_ms();
  return out;
}

std::unique_ptr<ParallelOrderMaintainer> recover(const RecoveryOptions& opts,
                                                 DynamicGraph& graph,
                                                 ThreadTeam& team,
                                                 RecoveryResult* result) {
  RecoveryResult res;

  // 1. Newest loadable checkpoint wins; unloadable ones (a crashed
  // write never renames, so these are media damage, not protocol holes)
  // fall back to the previous generation.
  const std::vector<std::uint64_t> epochs = list_checkpoint_epochs(opts.dir);
  if (epochs.empty())
    throw std::runtime_error("no checkpoints found in " + opts.dir);
  io::PcgCheckpoint ck;
  bool loaded = false;
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    try {
      ck = io::load_pcg_checkpoint(checkpoint_path(opts.dir, *it));
      loaded = true;
      break;
    } catch (const IoError&) {
      ++res.checkpoints_skipped;
    }
  }
  if (!loaded)
    throw std::runtime_error("no loadable checkpoint in " + opts.dir + " (" +
                             std::to_string(res.checkpoints_skipped) +
                             " damaged)");
  res.checkpoint_epoch = ck.epoch;
  res.final_epoch = ck.epoch;

  // 2. Restore the maintainer from the image — the saved k-order stands
  // in for the bz peel order, so no decomposition runs here.
  graph = DynamicGraph::from_edges(
      static_cast<std::size_t>(ck.num_vertices), ck.edges);
  SavedCoreOrder saved;
  saved.core = std::move(ck.core);
  saved.order = std::move(ck.order);
  ParallelOrderMaintainer::Options mopts = opts.maintainer;
  mopts.restore = &saved;
  auto maintainer =
      std::make_unique<ParallelOrderMaintainer>(graph, team, mopts);

  // 3. WAL tail through the normal maintain path. The WAL must belong
  // to this checkpoint; a missing file means the generation committed
  // and crashed before any flush was logged — nothing to replay — but a
  // base-epoch mismatch is corruption.
  const std::string wal = wal_path(opts.dir, ck.epoch);
  WalReadResult tail;
  bool have_wal = true;
  try {
    tail = read_wal(wal);
  } catch (const IoError& e) {
    if (std::string(e.what()).find("cannot open WAL") != std::string::npos)
      have_wal = false;
    else
      throw;  // structural corruption: fail closed, no fallback
  }
  if (have_wal) {
    if (tail.base_epoch != ck.epoch)
      throw IoError(wal, 0,
                    "WAL base epoch " + std::to_string(tail.base_epoch) +
                        " does not match checkpoint epoch " +
                        std::to_string(ck.epoch));
    res.torn_tail = tail.torn_tail;
    const int workers = opts.workers > 0 ? opts.workers : 1;
    for (const WalRecord& rec : tail.records) {
      if (!rec.removes.empty())
        maintainer->remove_batch(rec.removes, workers);
      if (!rec.inserts.empty())
        maintainer->insert_batch(rec.inserts, workers);
      ++res.frames_replayed;
      res.edges_replayed += rec.removes.size() + rec.inserts.size();
      res.final_epoch = rec.epoch;
    }
  }

  res.num_vertices = graph.num_vertices();
  res.num_edges = graph.num_edges();
  res.max_core = maintainer->state().max_core();

  // 4. Differential oracle: a fresh decomposition of the replayed graph
  // must agree with every recovered core number. Defaults to the
  // parallel exact peel — identical accept/reject behavior to the BZ
  // oracle, parallel wall time.
  if (opts.verify) {
    const int workers = opts.workers > 0 ? opts.workers : 1;
    const VerifyOutcome vo = verify_recovered_cores(
        graph, maintainer->cores(), opts.verify_algo, team, workers);
    res.verify_ms = vo.ms;
    res.verify_algo = vo.algo;
    if (!vo.passed)
      throw std::runtime_error(
          "recovery verification failed (" + std::string(vo.algo) + ", " +
          std::to_string(vo.mismatches) + " mismatches): " +
          vo.first_mismatch);
    res.verified = true;
  }

  if (result != nullptr) *result = res;
  return maintainer;
}

}  // namespace parcore::durability
