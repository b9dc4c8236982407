// Shared benchmark harness: environment knobs, workload preparation
// (the paper's remove-then-reinsert protocol), the checked maintainer
// timer behind bench_paper (the one producer of the paper's numbers),
// bench_engine's edge pool, engine cell and off/on overhead routine,
// a JSON emitter and a fixed-width table printer.
//
// Environment variables (full table: docs/CONFIG.md):
//   PARCORE_BENCH_SCALE    graph scale factor (default 0.2; paper ~1.0
//                          would be the full stand-in sizes)
//   PARCORE_BENCH_BATCH    base batch size (default 5000)
//   PARCORE_BENCH_REPS     repetitions per measurement (default 1;
//                          paper uses 50)
//   PARCORE_BENCH_MAX_WORKERS  top of the worker sweep (default 16)
//   PARCORE_BENCH_FAST     set to 1 for a quick smoke run
//   PARCORE_BENCH_JSON_DIR directory for machine-readable BENCH_*.json
//                          result files (default: current directory)
//   PARCORE_BENCH_INPUT    dataset file (any src/io format); benches
//                          that honour it measure this graph instead of
//                          the synthetic suite
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/je.h"
#include "engine/engine.h"
#include "gen/suite.h"
#include "graph/dynamic_graph.h"
#include "parallel/parallel_order.h"
#include "support/histogram.h"
#include "support/timer.h"
#include "sync/thread_team.h"

namespace parcore::bench {

struct BenchEnv {
  double scale = 0.2;
  std::size_t batch = 5000;
  int reps = 1;
  int max_workers = 16;
  bool fast = false;
  std::string input;  // PARCORE_BENCH_INPUT dataset path ("" = synthetic)
};

BenchEnv bench_env();

/// Worker sweep 1,2,4,...,max (paper Fig. 4 uses 1..64; we default 16).
std::vector<int> worker_sweep(int max_workers);

/// A suite graph prepared for the evaluation protocol: `base` is the
/// graph with the batch removed; inserting `batch` then removing it
/// returns to `base` (so repetitions and algorithms see identical work).
struct PreparedWorkload {
  SuiteSpec spec;
  std::size_t n = 0;
  std::vector<Edge> base_edges;
  std::vector<Edge> batch;
};

PreparedWorkload prepare_workload(const SuiteSpec& spec, double scale,
                                  std::size_t batch_size);

/// Same protocol over a real dataset loaded through the io/ reader
/// (SNAP / MatrixMarket / .pcg, optionally gzipped): temporal files use
/// the paper's contiguous-time-range batch, static ones the uniform
/// sample. The stand-in SuiteSpec carries the file's own statistics.
PreparedWorkload prepare_workload_from_file(const std::string& path,
                                            std::size_t batch_size);

/// What a suite-sweeping bench should measure: one workload per spec,
/// or just the PARCORE_BENCH_INPUT dataset when the env names one.
std::vector<PreparedWorkload> suite_or_file_workloads(
    const std::vector<SuiteSpec>& specs, const BenchEnv& env);

DynamicGraph base_graph(const PreparedWorkload& w);

/// The maintainers the paper compares: OurI/OurR, the sequential
/// Order algorithm (SeqI/SeqR, one worker) and JEI/JER.
enum class Algo { kOur, kSeq, kJe };
const char* algo_name(Algo algo);  // "Our", "Seq", "JE"

struct CellSpec {
  Algo algo = Algo::kOur;
  int workers = 1;
  int reps = 1;
  /// The batch is split into this many disjoint contiguous groups, each
  /// inserted then removed in turn (Fig. 6); one sample per group.
  std::size_t groups = 1;
  /// Our only: record the Fig. 1 |V+| / |V*| histograms.
  bool collect_stats = false;
};

struct TimedCell {
  RunStats insert_ms;
  RunStats remove_ms;
  /// Largest core after the first insert (one group: the whole graph's
  /// max k).
  CoreValue max_core = 0;
  /// Empty when, after every insert+remove, the maintainer's cores and
  /// edge count equal their values at construction; else what differed.
  std::string mismatch;
  /// Our with collect_stats: insert |V+| and remove |V*| sizes.
  std::optional<SizeHistogram> vplus;
  std::optional<SizeHistogram> vstar;
};

/// Builds one maintainer over the workload's base graph and times
/// `reps` insert+remove rounds of its batch, checking each round.
TimedCell time_cell(const PreparedWorkload& w, ThreadTeam& team,
                    const CellSpec& spec);

/// One streaming-engine measurement cell, the only one bench_engine
/// runs: builds a fresh engine over `base`, replays the per-producer
/// streams concurrently (stop() drains the tail inside the measured
/// window), and reports end-to-end throughput plus the engine's own
/// stats. `durable` turns on WAL + checkpoints (the default
/// checkpoint_interval, 64) in a fresh temporary directory that is
/// removed after the cell.
struct EngineCellResult {
  double seconds = 0.0;
  double updates_per_sec = 0.0;
  engine::EngineStats stats;
};

EngineCellResult run_engine_cell(
    std::size_t n, const std::vector<Edge>& base,
    const std::vector<std::vector<GraphUpdate>>& streams, ThreadTeam& team,
    engine::StreamingEngine::Options opts, bool durable = false);

/// bench_engine's edge pool: the PARCORE_BENCH_INPUT dataset, or
/// the first scalability stand-in (skewed R-MAT, where coalescing pays)
/// canonicalised. Each cell's engine starts from `base`, the pool's
/// first half; the producer streams draw from all of it.
struct EngineEdgePool {
  std::string name;
  std::size_t n = 0;
  std::vector<Edge> edges;
  std::vector<Edge> base;
};

EngineEdgePool engine_edge_pool(const BenchEnv& env);

/// bench_engine's producer workload: producer p draws
/// ops_total/producers updates from its own contiguous slice of the
/// edge pool — disjoint universes keep the end state deterministic —
/// with a fixed seed and hot/remove-fraction mix, so every surface
/// measures identical work.
std::vector<std::vector<GraphUpdate>> producer_update_streams(
    const std::vector<Edge>& pool, int producers, std::size_t ops_total);

/// Minimal JSON value/emitter for the BENCH_* trajectory files. Only
/// what the benches need: objects (insertion-ordered), arrays, numbers,
/// strings, bools. Integral numbers print without a decimal point so
/// counters stay exact.
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(double v) : kind_(Kind::kDouble), num_(v) {}
  // Counters are stored signed so negative ints (deltas, error codes)
  // round-trip; bench counters never approach INT64_MAX.
  Json(std::uint64_t v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}
  Json(const char* v) : Json(std::string(v)) {}

  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  /// Sets a key on an object (keeps first-set order); returns *this.
  Json& set(const std::string& key, Json value);
  /// Appends to an array; returns *this.
  Json& push(Json value);

  std::string dump(int indent = 0) const;

 private:
  enum class Kind { kNull, kDouble, kInt, kBool, kString, kObject, kArray };
  explicit Json(Kind k) : kind_(k) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool bool_ = false;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;  // object
  std::vector<Json> items_;                            // array
};

/// Writes `payload` to "<PARCORE_BENCH_JSON_DIR>/BENCH_<name>.json"
/// (pretty-printed) and prints the path. Returns the path written.
std::string write_bench_json(const std::string& name, const Json& payload);

/// The BENCH_engine.json row for one engine cell: its configuration
/// (`mode` names what is on besides the batch policy; `cap` is the
/// ingest cap, 0 = unbounded), throughput and flush latency, coalesce
/// counts, the per-phase flush times, the WAL/checkpoint totals and the
/// admission counters. Every row carries every field.
Json engine_cell_json(const std::string& policy, const std::string& mode,
                      int producers, int workers, std::size_t cap,
                      const EngineCellResult& r);

/// One off/on overhead pair, the statistic behind each CI overhead
/// gate: `reps` times, score the off side and then the on side; each
/// side keeps its best score.
enum class Score {
  kUpdatesPerSec,  // a rate: best is the highest
  kNsPerUpdate,    // a cost: best is the lowest
};

struct OverheadPair {
  /// Each side's best score, as a rate (a cost c reads as 1e9 / c).
  double off_updates_per_sec = 0.0;
  double on_updates_per_sec = 0.0;
  /// How much worse the on side's best is than the off side's, in
  /// percent of the off side's score (negative: on was better).
  double overhead_pct = 0.0;
  /// The same figure for each rep's own off/on pair, in run order.
  std::vector<double> pairs;
};

OverheadPair measure_overhead(int reps, Score score,
                              const std::function<double()>& off,
                              const std::function<double()>& on);

/// {off_updates_per_sec, on_updates_per_sec, overhead_pct, pairs}.
Json overhead_json(const OverheadPair& p);

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os = std::cout) const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double value, int precision = 1);

}  // namespace parcore::bench
