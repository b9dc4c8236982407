// Crash recovery (docs/DURABILITY.md): rebuild a maintainer from the
// newest valid checkpoint generation plus its WAL tail.
//
//   1. Scan the directory for checkpoint-<epoch>.pcg, newest first.
//      A checkpoint that fails to load (torn tmp never renames, but
//      media corruption happens) is skipped and the next-older one is
//      tried; the skips are reported in the result.
//   2. Restore the maintainer from the checkpoint's saved (core,
//      k-order) image — no bz_decompose on the recovery path.
//   3. Replay the matching wal-<epoch>.log through the NORMAL maintain
//      path (remove_batch then insert_batch per frame, exactly the
//      engine's apply order). A torn final frame is discarded; any
//      other WAL defect fails closed with IoError — a WAL that lies
//      about applied ops must never silently yield a wrong core index.
//   4. Differentially verify the recovered cores against a fresh
//      decomposition of the replayed graph (skippable for speed). The
//      oracle defaults to the parallel exact peel (decomp/
//      parallel_peel.h) — same accept/reject behavior as BZ, minus the
//      sequential bottleneck on big graphs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dynamic_graph.h"
#include "parallel/parallel_order.h"
#include "sync/thread_team.h"

namespace parcore::durability {

/// Which oracle the differential verify (step 4) runs.
///   kBz       — sequential BZ peel (the PR 7 behavior).
///   kParallel — parallel exact peel on `workers` threads; identical
///               core numbers, identical accept/reject decisions.
enum class VerifyAlgo { kBz, kParallel };

struct RecoveryOptions {
  std::string dir;
  int workers = 4;
  /// Differentially verify recovered cores against a fresh
  /// decomposition (algorithm per verify_algo).
  bool verify = true;
  /// Maintainer options for the recovered instance (the restore image
  /// is supplied by recovery; Options::restore is overwritten).
  ParallelOrderMaintainer::Options maintainer{};
  VerifyAlgo verify_algo = VerifyAlgo::kParallel;
};

struct RecoveryResult {
  std::uint64_t checkpoint_epoch = 0;  // generation recovered from
  std::uint64_t final_epoch = 0;       // after WAL replay
  std::size_t checkpoints_skipped = 0; // newer-but-unloadable generations
  std::size_t frames_replayed = 0;
  std::size_t edges_replayed = 0;      // ops across all replayed frames
  bool torn_tail = false;              // WAL ended inside a frame
  bool verified = false;               // differential cross-check ran + passed
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  CoreValue max_core = 0;
  double verify_ms = 0.0;              // step-4 wall time (0 when skipped)
  const char* verify_algo = "";        // "bz" | "parallel"
};

/// The step-4 oracle, exposed for direct differential testing: computes
/// a fresh decomposition of `g` with `algo` and requires `cores` to
/// equal it.
struct VerifyOutcome {
  bool passed = false;
  std::size_t mismatches = 0;
  double ms = 0.0;
  const char* algo = "";
  std::string first_mismatch;  // diagnostic for the throw message
};
VerifyOutcome verify_recovered_cores(const DynamicGraph& g,
                                     const std::vector<CoreValue>& cores,
                                     VerifyAlgo algo, ThreadTeam& team,
                                     int workers);

/// Rebuilds `graph` (overwritten) and returns a maintainer over it
/// positioned at the recovered state. `graph` and `team` must outlive
/// the returned maintainer. Throws io::IoError on corruption that
/// cannot be attributed to a torn tail, std::runtime_error when no
/// loadable checkpoint exists or the differential verify fails.
std::unique_ptr<ParallelOrderMaintainer> recover(
    const RecoveryOptions& opts, DynamicGraph& graph, ThreadTeam& team,
    RecoveryResult* result = nullptr);

}  // namespace parcore::durability
