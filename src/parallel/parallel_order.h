// Parallel-Order core maintenance — the paper's contribution (§4):
// batches of edge insertions (Algorithms 5-7) and removals (Algorithm 8)
// processed by P workers over shared state, synchronised by per-vertex
// CAS locks. Only vertices in V+ (insert) / V* (remove) are ever locked.
//
// Key mechanics, mapped to the paper:
//  - endpoints are locked "together" with no hold-and-wait (lock_pair);
//  - insertion propagates in k-order through the versioned per-worker
//    priority queue (KOrderHeap), so locks are acquired in a globally
//    consistent order and no blocking cycle can form;
//  - the per-vertex status word s guards (core, OM position) reads
//    (Algorithm 6) and is bumped around every move;
//  - removal uses conditional locks (core == K) plus the t-status
//    protocol with CAS(t,1,3) redo to keep mcd consistent without
//    locking neighbours;
//  - insert and remove batches must not overlap (paper §4); the API
//    enforces this by running one batch at a time. Callers that face an
//    interleaved update stream should sit the streaming engine
//    (src/engine) in front of this class — its coalescer produces
//    exactly the disjoint batches required here.
//
// Deviations from the paper's pseudocode are listed in DESIGN.md §3.2.
#pragma once

#include <atomic>
#include <deque>
#include <span>
#include <vector>

#include "graph/dynamic_graph.h"
#include "maint/core_state.h"
#include "parallel/korder_heap.h"
#include "support/histogram.h"
#include "support/types.h"
#include "support/vertex_set.h"
#include "sync/annotations.h"
#include "sync/thread_team.h"

namespace parcore {

struct BatchResult {
  std::size_t applied = 0;  // edges actually inserted/removed
  std::size_t skipped = 0;  // self-loops, duplicates, missing edges
};

class ParallelOrderMaintainer {
 public:
  struct Options {
    CoreState::Options state{};
    bool collect_stats = false;  // Fig. 1 histograms
    /// Non-null: the constructor restores this saved (core, k-order)
    /// image instead of running bz_decompose — the durability recovery
    /// path (docs/DURABILITY.md). Read during construction only (the
    /// pointer is not retained); the image must match the graph or the
    /// constructor throws. rebuild() always re-decomposes from scratch.
    const SavedCoreOrder* restore = nullptr;
  };

  /// Mutates `g`; both `g` and `team` must outlive the maintainer.
  ParallelOrderMaintainer(DynamicGraph& g, ThreadTeam& team, Options opts);
  ParallelOrderMaintainer(DynamicGraph& g, ThreadTeam& team)
      : ParallelOrderMaintainer(g, team, Options()) {}

  /// (Re)initialises cores/k-order/dout/mcd from the current graph:
  /// with the sequential BZ peel when `workers` is 0 (the constructor's
  /// path), else with the bulk parallel decomposition
  /// (decomp/parallel_peel.h, exact mode) on `workers` workers. Both
  /// produce valid k-order instances; they just pick different
  /// (deterministic) ones. The engine's self-healing repair passes its
  /// flush workers.
  void rebuild(int workers = 0);

  /// OurI: inserts a batch with `workers` parallel workers.
  BatchResult insert_batch(std::span<const Edge> edges, int workers);

  /// OurR: removes a batch with `workers` parallel workers.
  BatchResult remove_batch(std::span<const Edge> edges, int workers);

  /// Single-edge conveniences (run the same code path on worker 0).
  bool insert_edge(VertexId u, VertexId v);
  bool remove_edge(VertexId u, VertexId v);

  /// Vertex-level updates, simulated as edge batches (paper §3.2).
  /// detach_vertex removes every incident edge of v (v keeps its slot
  /// with core 0); attach_vertex connects v to `neighbors`. Both return
  /// the number of edges applied.
  std::size_t detach_vertex(VertexId v, int workers);
  std::size_t attach_vertex(VertexId v, std::span<const VertexId> neighbors,
                            int workers);

  CoreValue core(VertexId v) const {
    return state_.core(v).load(std::memory_order_relaxed);
  }
  std::vector<CoreValue> cores() const { return state_.cores_snapshot(); }

  CoreState& state() { return state_; }
  const CoreState& state() const { return state_; }
  DynamicGraph& graph() { return graph_; }

  /// Merged Fig.-1 histograms (valid when collect_stats is set).
  SizeHistogram insert_vplus_histogram() const;
  SizeHistogram insert_vstar_histogram() const;
  SizeHistogram remove_vstar_histogram() const;

  /// Wall-time decomposition of the most recent batch (zeroed at every
  /// batch start; valid at quiescence). `dispatch_us` is the wall time
  /// of the worker dispatch (team.run — the batch op loops only;
  /// removal dout repair is outside it but inside the engine's apply
  /// phase);
  /// `busy_us` sums each worker's time inside its dispatch loop, so
  /// `workers * dispatch_us - busy_us` is the idle/straggler slack the
  /// flush trace reports (obs/trace.h).
  /// `deferred` counts the edges whose endpoints were locked when
  /// first claimed and which were applied in the worker's blocking
  /// drain instead (DESIGN.md §9) — the batch's endpoint contention.
  /// `scanned` counts the adjacency entries the batch's scans read,
  /// removal dout repair and repartition passes included, and
  /// `repartitions` the scans that had to repartition their list first
  /// (DESIGN.md §3.1).
  struct BatchTiming {
    std::uint64_t dispatch_us = 0;
    std::uint64_t busy_us = 0;
    std::uint64_t deferred = 0;
    std::uint64_t scanned = 0;
    std::uint64_t repartitions = 0;
    int workers = 0;
  };
  const BatchTiming& last_timing() const { return last_timing_; }

  /// Vertices whose core number changed during the most recent
  /// insert/remove batch (deduplicated union across workers; reset at
  /// every batch start). This is the maintainer's V* localisation
  /// handed to the publication layer: the engine's paged snapshot
  /// index clones only the pages these vertices live on
  /// (query/versioned_cores.h). Valid until the next batch; read at
  /// quiescence only.
  std::span<const VertexId> last_changed() const { return last_changed_; }

 private:
  // One cache line per worker: the per-edge hot fields (queue heads,
  // counters) of adjacent workers must not false-share.
  struct alignas(64) WorkerCtx {
    KOrderHeap queue;
    VertexSet vstar;
    VertexSet inr;
    VertexSet ap;
    std::deque<VertexId> rq;
    std::vector<VertexId> locked;
    std::vector<VertexId> touched;
    std::vector<VertexId> changed;  // cores promoted/demoted this batch
    std::vector<Edge> deferred;     // claimed with an endpoint locked
    std::size_t vplus_count = 0;
    std::uint64_t scanned = 0;       // folded into BatchTiming
    std::uint64_t repartitions = 0;  // at batch end
    SizeHistogram vplus_hist;
    SizeHistogram vstar_hist;
    SizeHistogram remove_vstar_hist;
  };

  // What one claimed edge came to: kDeferred only when the op was
  // allowed to defer and an endpoint lock was taken.
  enum class EdgeOutcome { kSkipped, kApplied, kDeferred };

  // insert_one / finalize_insert / remove_one / (try_)lock_endpoints
  // operate on the per-vertex lock array (state_.lock(v)) under the
  // paper's protocol: endpoints locked together up front, the V*
  // frontier held locked across the whole traversal, released en masse
  // at the end.
  // Clang's analysis cannot track dynamically indexed capabilities, so
  // these carry the no-analysis exemption; the discipline is enforced
  // by the invariant suite (all locks free at quiescence) instead
  // (docs/STATIC_ANALYSIS.md §exemptions).
  EdgeOutcome insert_one(WorkerCtx& ctx, Edge e, bool may_defer)
      PARCORE_NO_THREAD_SAFETY_ANALYSIS;
  void insert_forward(WorkerCtx& ctx, VertexId w, CoreValue k);
  void insert_backward(WorkerCtx& ctx, VertexId w, CoreValue k,
                       OrderList& list);
  void adjust_candidates(WorkerCtx& ctx, VertexId y, CoreValue k,
                         bool origin);
  void finalize_insert(WorkerCtx& ctx, CoreValue k, OrderList& list)
      PARCORE_NO_THREAD_SAFETY_ANALYSIS;

  EdgeOutcome remove_one(WorkerCtx& ctx, Edge e, bool may_defer)
      PARCORE_NO_THREAD_SAFETY_ANALYSIS;
  void check_mcd(WorkerCtx& ctx, VertexId x, VertexId propagating_from);
  bool demote_if_unsupported(WorkerCtx& ctx, VertexId x, CoreValue k);

  /// The part of adj(v) holding every neighbour with core >= t: v's
  /// prefix, repartitioned first when t is below floor(v) (DESIGN.md
  /// §3.1). The caller holds v's lock, or the maintainer is quiescent.
  std::span<const VertexId> scan_list(WorkerCtx& ctx, VertexId v,
                                      CoreValue t);
  void fold_scan_counts();

  void repair_dout_after_removal(int workers);
  void collect_changed();

  /// Locks a and b together (no hold-and-wait; Alg. 7/8 line 1) and
  /// returns true with both held — unbalanced by design, hence exempt.
  /// With `may_defer` it makes one try_lock_endpoints attempt instead.
  bool lock_endpoints(VertexId a, VertexId b, bool may_defer)
      PARCORE_NO_THREAD_SAFETY_ANALYSIS;
  /// One attempt: true with both held, false with neither (the lower
  /// id is tried first and released if the higher is taken).
  bool try_lock_endpoints(VertexId a, VertexId b)
      PARCORE_NO_THREAD_SAFETY_ANALYSIS;

  template <typename Fn>
  BatchResult run_batch(std::span<const Edge> edges, int workers, Fn&& op);

  DynamicGraph& graph_;
  ThreadTeam& team_;
  Options opts_;
  CoreState state_;
  std::vector<WorkerCtx> ctxs_;
  BatchTiming last_timing_;

  // Epoch-marked membership for deduplicating touched sets across
  // workers without an O(n) clear per batch; `repair_unique_` is the
  // deduplicated union, hoisted here so steady-state flushes reuse its
  // capacity instead of reallocating every removal batch.
  std::vector<std::uint32_t> mark_;
  std::vector<VertexId> repair_unique_;
  std::uint32_t epoch_ = 0;

  // Same epoch-marked dedup idiom for the changed-core union behind
  // last_changed(). Separate mark array: the touched/changed epochs
  // advance independently (run_batch vs remove_batch) and must not
  // poison each other's membership tests.
  std::vector<std::uint32_t> changed_mark_;
  std::vector<VertexId> last_changed_;
  std::uint32_t changed_epoch_ = 0;
};

}  // namespace parcore
