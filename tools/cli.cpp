#include "cli.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "decomp/bz.h"
#include "decomp/core_query.h"
#include "decomp/parallel_peel.h"
#include "durability/recovery.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "gen/stream_adapter.h"
#include "graph/edge_list.h"
#include "harness.h"
#include "io/graph_reader.h"
#include "io/io_error.h"
#include "io/pcg.h"
#include "io/temporal_stream.h"
#include "maint/seq_order.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "support/env.h"
#include "support/timer.h"

#ifdef PARCORE_HAVE_ZLIB
#include <zlib.h>
#endif

namespace parcore::cli {

namespace {

using bench::Table;
using bench::fmt;

// SIGINT/SIGTERM request a graceful serve shutdown: producers poll the
// flag and stop submitting, the engine drains + takes its shutdown
// checkpoint, and the closing report still prints. sig_atomic_t is the
// only type a handler may portably write.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_stop_signal(int) { g_interrupted = 1; }

/// A bad option value (vs. a runtime failure): caught by the dispatcher
/// and reported with the command's usage text, exit code 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr const char* kGlobalUsage = R"(parcore_cli - core maintenance over real datasets

usage: parcore_cli <command> [options]

commands:
  decompose   static core decomposition of a dataset (BZ or parallel peel)
  maintain    sliding-window batch maintenance (parallel/seq/je)
  serve       drive the streaming engine from a temporal update file
  recover     rebuild state from a serve run's checkpoint + WAL directory
  stats       degree distribution + adjacency memory footprint of a dataset
  convert     transcode a dataset (e.g. edge list -> .pcg binary cache)
  help        print this text (or 'help <command>' for one command)

Input formats (spec: docs/FORMATS.md): SNAP-style edge lists,
MatrixMarket .mtx, and the .pcg binary cache; .gz variants of the text
formats when built with zlib (-DPARCORE_WITH_ZLIB=ON).

Environment knobs (full table: docs/CONFIG.md): PARCORE_ENGINE_* for
the streaming engine's flush policy, PARCORE_WAL_* for durability.
)";

// ------------------------------------------------------------ arg parsing

/// Minimal "--name value" / "--flag" parser over a declared option set.
class Args {
 public:
  /// `flags` take no value; everything else in `known` does.
  Args(const std::vector<std::string>& args, std::size_t start,
       std::set<std::string> known, std::set<std::string> flags)
      : known_(std::move(known)), flags_(std::move(flags)) {
    for (std::size_t i = start; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--help" || a == "-h") {
        help_ = true;
        continue;
      }
      if (a.rfind("--", 0) != 0) {
        error_ = "unexpected positional argument '" + a + "'";
        return;
      }
      const std::string name = a.substr(2);
      if (flags_.count(name) != 0) {
        values_[name] = "1";
        continue;
      }
      if (known_.count(name) == 0) {
        error_ = "unknown option --" + name;
        return;
      }
      if (i + 1 >= args.size()) {
        error_ = "option --" + name + " needs a value";
        return;
      }
      values_[name] = args[++i];
    }
  }

  bool help() const { return help_; }
  const std::string& error() const { return error_; }

  bool has(const std::string& name) const { return values_.count(name) != 0; }

  std::string get(const std::string& name, const std::string& def = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  /// Strict: the whole value must be a decimal integer, or the command
  /// fails with a usage error rather than running on a silent default.
  long get_int(const std::string& name, long def) const {
    auto it = values_.find(name);
    if (it == values_.end()) return def;
    const std::string& s = it->second;
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
      throw UsageError("option --" + name + " expects an integer, got '" + s +
                       "'");
    return v;
  }

  /// get_int restricted to values >= 1 (thread counts, sizes).
  long get_positive(const std::string& name, long def) const {
    const long v = get_int(name, def);
    if (v < 1)
      throw UsageError("option --" + name + " must be positive, got " +
                       std::to_string(v));
    return v;
  }

 private:
  std::set<std::string> known_;
  std::set<std::string> flags_;
  std::map<std::string, std::string> values_;
  std::string error_;
  bool help_ = false;
};

int usage_error(const char* usage, const std::string& message) {
  std::fprintf(stderr, "parcore_cli: %s\n\n%s", message.c_str(), usage);
  return 2;
}

// ------------------------------------------------------------ shared bits

void print_load_summary(const std::string& path, const io::GraphData& data,
                        double ms) {
  std::printf("loaded %s: n=%zu m=%zu (%.1f ms, %.1f MB parsed", path.c_str(),
              data.num_vertices, data.edges.size(), ms,
              static_cast<double>(data.stats.memory_footprint_bytes) / 1e6);
  if (data.stats.self_loops > 0 || data.stats.duplicates > 0)
    std::printf("; dropped %zu self-loops, %zu duplicates",
                data.stats.self_loops, data.stats.duplicates);
  std::printf(")\n");
}

/// The one operator-facing metrics renderer (docs/OBSERVABILITY.md):
/// serve's closing report, serve's /summary HTTP endpoint and
/// `stats --live` all print the engine's rows through this exporter, so
/// the three surfaces can never drift apart.
std::string metrics_summary(const engine::StreamingEngine& eng) {
  return obs::human_summary(eng.metric_rows());
}

bool cores_match(const std::vector<CoreValue>& got,
                 const std::vector<CoreValue>& want) {
  if (got.size() != want.size()) return false;
  return std::equal(got.begin(), got.end(), want.begin());
}

/// Edge sequence in arrival order: temporal files by timestamp, static
/// ones in file order.
std::vector<Edge> arrival_order_edges(io::GraphData& data) {
  if (data.has_timestamps)
    std::stable_sort(data.edges.begin(), data.edges.end(),
                     [](const TimestampedEdge& a, const TimestampedEdge& b) {
                       return a.time < b.time;
                     });
  return io::static_edges(data);
}

// -------------------------------------------------------------- decompose

constexpr const char* kDecomposeUsage =
    R"(usage: parcore_cli decompose --input FILE [options]

Static core decomposition with a load/decompose time breakdown.

  --input FILE   dataset (edge list / .mtx / .pcg; docs/FORMATS.md)
  --algo NAME    bz (sequential, default) or parallel (parallel exact
                 peel, also derives a k-order)
  --workers N    worker threads for parallel (default 8, or
                 PARCORE_DECOMPOSE_WORKERS when set)
  --top K        print the K highest-coreness vertices (original ids)
  --histogram    print the core-value distribution
)";

int cmd_decompose(const Args& args) {
  const std::string input = args.get("input");
  if (input.empty()) return usage_error(kDecomposeUsage, "--input is required");
  const std::string algo = args.get("algo", "bz");
  if (algo != "bz" && algo != "parallel")
    return usage_error(kDecomposeUsage, "unknown --algo '" + algo + "'");

  WallTimer load_timer;
  io::GraphData data = io::read_graph(input);
  const double load_ms = load_timer.elapsed_ms();
  print_load_summary(input, data, load_ms);

  DynamicGraph g = io::to_dynamic_graph(data);
  const int workers = static_cast<int>(args.get_positive(
      "workers", std::max(env_int("PARCORE_DECOMPOSE_WORKERS", 8), 1L)));
  WallTimer decomp_timer;
  std::vector<CoreValue> cores;
  std::string note;
  if (algo == "parallel") {
    ThreadTeam team(workers);
    const BulkDecomposition bd = parallel_decompose(g, team, workers);
    cores = bd.core;
    note = " (" + std::to_string(workers) + " workers, " +
           std::to_string(bd.rounds) + " rounds)";
  } else {
    cores = bz_decompose(g).core;
  }
  const double decomp_ms = decomp_timer.elapsed_ms();

  CoreSummary summary = summarize_cores(cores);
  std::printf("%s decomposition: %.1f ms%s\n", algo.c_str(), decomp_ms,
              note.c_str());
  std::printf("max core = %d, degeneracy core size = %zu, avg degree = %.2f\n",
              summary.max_core, summary.degeneracy_core_size,
              g.average_degree());

  if (args.has("histogram")) {
    Table t({"core", "vertices"});
    for (std::size_t k = 0; k < summary.histogram.size(); ++k)
      if (summary.histogram[k] > 0)
        t.add_row({std::to_string(k), std::to_string(summary.histogram[k])});
    t.print();
  }

  const long top = args.get_int("top", 0);
  if (top > 0) {
    std::vector<VertexId> order(cores.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) { return cores[a] > cores[b]; });
    Table t({"vertex", "core"});
    for (long i = 0; i < top && i < static_cast<long>(order.size()); ++i) {
      const VertexId v = order[static_cast<std::size_t>(i)];
      const std::uint64_t shown =
          v < data.original_ids.size() ? data.original_ids[v] : v;
      t.add_row({std::to_string(shown), std::to_string(cores[v])});
    }
    t.print();
  }
  return 0;
}

// ---------------------------------------------------------------- convert

constexpr const char* kConvertUsage =
    R"(usage: parcore_cli convert --input FILE --output FILE

Transcodes a dataset. Output ending in .pcg writes the binary cache
(parse once, load fast); .gz writes a gzipped edge list (zlib builds
only); any other output writes a plain edge list. Self-loops and
duplicate edges are dropped and ids compacted to [0, n).
)";

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void write_gz_edge_list(const std::string& path, const io::GraphData& data) {
#ifdef PARCORE_HAVE_ZLIB
  gzFile f = gzopen(path.c_str(), "wb");
  if (f == nullptr) throw io::IoError(path, 0, "cannot open for writing");
  for (const TimestampedEdge& te : data.edges) {
    const int n =
        data.has_timestamps
            ? gzprintf(f, "%u %u %llu\n", te.e.u, te.e.v,
                       static_cast<unsigned long long>(te.time))
            : gzprintf(f, "%u %u\n", te.e.u, te.e.v);
    if (n <= 0) {
      gzclose(f);
      throw io::IoError(path, 0, "write failed");
    }
  }
  if (gzclose(f) != Z_OK) throw io::IoError(path, 0, "write failed");
#else
  throw io::IoError(path, 0,
                    "gzip output requires a zlib build "
                    "(-DPARCORE_WITH_ZLIB=ON)");
#endif
}

int cmd_convert(const Args& args) {
  const std::string input = args.get("input");
  const std::string output = args.get("output");
  if (input.empty() || output.empty())
    return usage_error(kConvertUsage, "--input and --output are required");
  if (ends_with(output, ".pcg.gz"))
    return usage_error(kConvertUsage,
                       ".pcg caches cannot be gzipped (the binary loader "
                       "reads plain files only)");

  WallTimer load_timer;
  io::GraphData data = io::read_graph(input);
  print_load_summary(input, data, load_timer.elapsed_ms());

  WallTimer write_timer;
  if (io::detect_format(output) == io::GraphFormat::kPcg) {
    io::save_pcg(output, data);
  } else if (ends_with(output, ".gz")) {
    write_gz_edge_list(output, data);
  } else {
    EdgeListData out;
    out.num_vertices = data.num_vertices;
    out.edges = data.edges;
    out.has_timestamps = data.has_timestamps;
    save_edge_list(output, out);
  }
  std::printf("wrote %s: %zu edges (%.1f ms)\n", output.c_str(),
              data.edges.size(), write_timer.elapsed_ms());
  return 0;
}

// ---------------------------------------------------------------- maintain

constexpr const char* kMaintainUsage =
    R"(usage: parcore_cli maintain --input FILE [options]

Sliding-window batch maintenance: replay the dataset in arrival order
(temporal files by timestamp), inserting a batch per step and removing
the batch that slides out of the window once it is full.

  --input FILE   dataset (edge list / .mtx / .pcg)
  --algo NAME    parallel (default), seq, or je
  --window N     live-edge window (default: half the dataset)
  --batch B      edges per step (default 1000)
  --workers W    parallel/je workers per batch (default 8)
  --steps S      stop after S steps (default: until exhausted)
  --verify       recompute cores from scratch at the end and compare
)";

int cmd_maintain(const Args& args) {
  const std::string input = args.get("input");
  if (input.empty()) return usage_error(kMaintainUsage, "--input is required");
  const std::string algo = args.get("algo", "parallel");
  if (algo != "parallel" && algo != "seq" && algo != "je")
    return usage_error(kMaintainUsage, "unknown --algo '" + algo + "'");

  WallTimer load_timer;
  io::GraphData data = io::read_graph(input);
  print_load_summary(input, data, load_timer.elapsed_ms());
  const std::vector<Edge> stream = arrival_order_edges(data);
  if (stream.empty()) {
    std::fprintf(stderr, "parcore_cli: %s has no edges\n", input.c_str());
    return 1;
  }

  const std::size_t window = static_cast<std::size_t>(args.get_positive(
      "window", static_cast<long>(std::max<std::size_t>(1, stream.size() / 2))));
  const std::size_t batch =
      static_cast<std::size_t>(args.get_positive("batch", 1000));
  const int workers = static_cast<int>(args.get_positive("workers", 8));
  const long max_steps = args.has("steps") ? args.get_positive("steps", 1) : -1;

  // The window starts as the first min(window, m) edges.
  const std::size_t base_len = std::min(window, stream.size());
  std::deque<Edge> live(stream.begin(),
                        stream.begin() + static_cast<std::ptrdiff_t>(base_len));
  DynamicGraph g = DynamicGraph::from_edges(
      data.num_vertices, std::vector<Edge>(live.begin(), live.end()));

  // Only the selected maintainer is constructed: each constructor runs a
  // full decomposition, and the non-JE ones take over `g`.
  ThreadTeam team(std::max(workers, 1));
  std::unique_ptr<ParallelOrderMaintainer> par;
  std::unique_ptr<SeqOrderMaintainer> seq;
  std::unique_ptr<JeMaintainer> je;
  if (algo == "parallel")
    par = std::make_unique<ParallelOrderMaintainer>(g, team);
  else if (algo == "seq") seq = std::make_unique<SeqOrderMaintainer>(g);
  else je = std::make_unique<JeMaintainer>(g, team);

  auto insert = [&](std::span<const Edge> edges) {
    if (par) par->insert_batch(edges, workers);
    else if (seq) seq->insert_batch(edges);
    else je->insert_batch(edges, workers);
  };
  auto remove = [&](std::span<const Edge> edges) {
    if (par) par->remove_batch(edges, workers);
    else if (seq) seq->remove_batch(edges);
    else je->remove_batch(edges, workers);
  };
  auto cores = [&]() -> std::vector<CoreValue> {
    std::vector<CoreValue> out(data.num_vertices);
    for (VertexId v = 0; v < out.size(); ++v)
      out[v] = par ? par->core(v) : seq ? seq->core(v) : je->core(v);
    return out;
  };

  std::vector<double> insert_ms, remove_ms;
  std::size_t pos = base_len, steps = 0;
  while (pos < stream.size() &&
         (max_steps < 0 || steps < static_cast<std::size_t>(max_steps))) {
    const std::size_t len = std::min(batch, stream.size() - pos);
    std::span<const Edge> in(stream.data() + pos, len);

    WallTimer t;
    insert(in);
    insert_ms.push_back(t.elapsed_ms());
    for (const Edge& e : in) live.push_back(e);
    pos += len;

    if (live.size() > window) {
      std::vector<Edge> out;
      while (live.size() > window) {
        out.push_back(live.front());
        live.pop_front();
      }
      t.reset();
      remove(out);
      remove_ms.push_back(t.elapsed_ms());
    }
    ++steps;
  }

  const RunStats ins = RunStats::from(insert_ms);
  const RunStats rem = RunStats::from(remove_ms);
  std::printf(
      "%s: %zu steps (batch %zu, window %zu, %d workers)\n"
      "  insert per batch: mean %.2f ms (max %.2f), %zu batches\n"
      "  remove per batch: mean %.2f ms (max %.2f), %zu batches\n",
      algo.c_str(), steps, batch, window, workers, ins.mean, ins.max,
      ins.count, rem.mean, rem.max, rem.count);

  if (args.has("verify")) {
    DynamicGraph fresh = DynamicGraph::from_edges(
        data.num_vertices, std::vector<Edge>(live.begin(), live.end()));
    const Decomposition expect = bz_decompose(fresh);
    if (!cores_match(cores(), expect.core)) {
      std::fprintf(stderr, "FAILED: maintained cores diverge from a fresh "
                           "decomposition\n");
      return 1;
    }
    std::printf("verified: maintained cores match a fresh decomposition\n");
  }
  return 0;
}

// ------------------------------------------------------------------ stats

constexpr const char* kStatsUsage =
    R"(usage: parcore_cli stats --input FILE
       parcore_cli stats --live PORT

Loads a dataset, materialises the slab-backed adjacency structure, and
prints the degree distribution (power-of-two buckets) plus the memory
footprint breakdown from DynamicGraph::memory_stats() — arena bytes,
slab slack, and the fraction of vertices stored inline.

  --input FILE   dataset (edge list / .mtx / .pcg; docs/FORMATS.md)
  --live PORT    instead of loading a dataset, fetch and print the live
                 metrics summary of a `serve --metrics-port PORT` run on
                 this machine (the /summary endpoint; the same renderer
                 serve's own closing report uses)
)";

int cmd_stats(const Args& args) {
  if (args.has("live")) {
    const long port = args.get_positive("live", 0);
    if (port > 65535) throw UsageError("--live expects a port in [1, 65535]");
    std::string error;
    const std::string body = obs::http_fetch(
        "127.0.0.1", static_cast<int>(port), "/summary", &error);
    if (body.empty() && !error.empty()) {
      std::fprintf(stderr, "parcore_cli: stats --live %ld: %s\n", port,
                   error.c_str());
      return 1;
    }
    std::fputs(body.c_str(), stdout);
    return 0;
  }
  const std::string input = args.get("input");
  if (input.empty()) return usage_error(kStatsUsage, "--input is required");

  WallTimer load_timer;
  io::GraphData data = io::read_graph(input);
  print_load_summary(input, data, load_timer.elapsed_ms());

  WallTimer build_timer;
  DynamicGraph g = io::to_dynamic_graph(data);
  const double build_ms = build_timer.elapsed_ms();

  std::printf("built adjacency in %.1f ms: n=%zu m=%zu, max degree %zu, "
              "avg degree %.2f\n",
              build_ms, g.num_vertices(), g.num_edges(), g.max_degree(),
              g.average_degree());

  // Degree distribution in power-of-two buckets (0, 1, 2, 3-4, 5-8, ...).
  std::vector<std::size_t> buckets;
  auto bucket_of = [](std::size_t d) -> std::size_t {
    if (d <= 2) return d;  // 0, 1, 2 get exact buckets
    std::size_t b = 3, hi = 4;
    while (d > hi) {
      hi *= 2;
      ++b;
    }
    return b;
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::size_t b = bucket_of(g.degree(v));
    if (b >= buckets.size()) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  Table dist({"degree", "vertices"});
  std::size_t lo = 3, hi = 4;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    std::string label;
    if (b <= 2) {
      label = std::to_string(b);
    } else {
      label = std::to_string(lo) + "-" + std::to_string(hi);
      lo = hi + 1;
      hi *= 2;
    }
    if (buckets[b] > 0) dist.add_row({label, std::to_string(buckets[b])});
  }
  dist.print();

  const GraphMemoryStats mem = g.memory_stats();
  Table t({"memory", "bytes", "detail"});
  t.add_row({"vertex headers", std::to_string(mem.header_bytes),
             "32 B x " + std::to_string(mem.num_vertices)});
  t.add_row({"arena reserved", std::to_string(mem.arena_reserved_bytes),
             std::to_string(mem.chunk_count) + " chunks"});
  t.add_row({"slabs in use", std::to_string(mem.slab_used_bytes),
             "capacity " + std::to_string(mem.slab_capacity_bytes)});
  t.add_row({"free lists", std::to_string(mem.freelist_bytes), ""});
  t.add_row({"total", std::to_string(mem.total_bytes()),
             fmt(static_cast<double>(mem.total_bytes()) / 1e6, 1) + " MB"});
  t.print();
  std::printf("inline vertices: %zu (%.1f%%), arena slack %.1f%%\n",
              mem.inline_vertices, 100.0 * mem.inline_fraction(),
              100.0 * mem.slack_fraction());
  return 0;
}

// ------------------------------------------------------------------ serve

constexpr const char* kServeUsage =
    R"(usage: parcore_cli serve --input FILE [options]

Drives the streaming engine from a temporal update file ("[+|-] u v [t]"
lines; a plain edge list is an insert-only stream). Ops are partitioned
across producer threads by edge, so the final graph is deterministic and
is checked against a fresh bz_decompose unless --no-verify.

  --input FILE    temporal update stream (docs/FORMATS.md)
  --producers N   concurrent producer threads (default 4)
  --readers N     concurrent query threads hammering epoch snapshots
                  (point reads + periodic core summaries) while the
                  producers run (default 0)
  --workers W     maintainer workers per flush (default: engine default)
  --repeat R      replay the stream R times (default 1; load amplifier)
  --no-verify     skip the final bz_decompose comparison
  --metrics-port P  serve live metrics over HTTP on 127.0.0.1:P while
                  the run is in flight (0 picks an ephemeral port):
                  /metrics is Prometheus text exposition, /summary the
                  human-readable summary (`stats --live P` fetches it)
  --trace-out FILE  stream one JSON line per flush (the FlushSpan
                  schema: per-phase timings, worker busy/idle;
                  docs/OBSERVABILITY.md)
  --checkpoint-dir DIR  enable durability (docs/DURABILITY.md): write
                  epoch checkpoints + an op WAL into DIR. The directory
                  must not already hold checkpoints; `parcore_cli
                  recover --dir DIR` rebuilds the state after a crash
  --checkpoint-interval N  flushes between periodic checkpoints
                  (default 64; 0 = only the initial/shutdown ones)
  --reverify MS   background re-verifier: every MS milliseconds a spare
                  thread recomputes the full decomposition (parallel
                  exact peel) on a consistent graph copy and diffs it
                  against the live snapshot; mismatches quarantine
                  queries to the last verified epoch until the next
                  flush repairs the state (docs/ROBUSTNESS.md); counted
                  in parcore_verify_mismatches_total (0 = off;
                  PARCORE_SERVE_REVERIFY_MS sets the same knob)
  --ingest-cap N  bound the ingest buffer at N pending updates
                  (admission control, docs/ROBUSTNESS.md; 0 = unbounded,
                  the default; PARCORE_ENGINE_INGEST_CAP sets the same)
  --overload POLICY  what producers hitting the cap get: `block` (wait
                  for a drain; default), `shed` (reject, counted in
                  parcore_admission_shed_total), `degrade` (compact the
                  producer's shard to last-op-per-edge and admit);
                  PARCORE_ENGINE_OVERLOAD sets the same knob

SIGINT/SIGTERM stop the run gracefully: producers stop submitting, the
engine drains, takes its shutdown checkpoint when durability is dirty,
and the closing report still prints (exit 0; the final bz_decompose
verification is skipped because the op stream was cut short).

Engine flush policy comes from PARCORE_ENGINE_* (docs/CONFIG.md);
PARCORE_WAL_* sets the same durability knobs environment-wide;
PARCORE_ENGINE_SNAPSHOT_PAGE sizes the copy-on-write snapshot pages.
)";

int cmd_serve(const Args& args) {
  const std::string input = args.get("input");
  if (input.empty()) return usage_error(kServeUsage, "--input is required");
  const int producers = static_cast<int>(args.get_positive("producers", 4));
  const long readers = args.has("readers")
                           ? args.get_positive("readers", 1)
                           : 0;
  const long repeat = args.get_positive("repeat", 1);

  WallTimer load_timer;
  io::TemporalStream stream = io::read_temporal_stream(input);
  std::printf("loaded %s: n=%zu, %zu ops (%.1f ms)\n", input.c_str(),
              stream.num_vertices, stream.ops.size(),
              load_timer.elapsed_ms());
  if (stream.ops.empty()) {
    std::fprintf(stderr, "parcore_cli: %s has no update ops\n", input.c_str());
    return 1;
  }

  std::vector<GraphUpdate> ops;
  ops.reserve(stream.ops.size() * static_cast<std::size_t>(repeat));
  for (long r = 0; r < repeat; ++r)
    for (const io::TimedUpdate& op : stream.ops) ops.push_back(op.u);

  engine::StreamingEngine::Options opts = engine::options_from_env();
  if (args.has("workers"))
    opts.workers = static_cast<int>(args.get_positive("workers", opts.workers));
  if (args.has("checkpoint-dir"))
    opts.durability.dir = args.get("checkpoint-dir");
  if (args.has("checkpoint-interval")) {
    const long iv = args.get_int("checkpoint-interval", 64);
    if (iv < 0)
      throw UsageError("--checkpoint-interval must be >= 0");
    opts.durability.checkpoint_interval = static_cast<std::size_t>(iv);
    if (opts.durability.dir.empty())
      throw UsageError("--checkpoint-interval requires --checkpoint-dir");
  }
  if (args.has("reverify")) {
    const long ms = args.get_int("reverify", 0);
    if (ms < 0) throw UsageError("--reverify must be >= 0");
    opts.reverify_interval_ms = static_cast<double>(ms);
  }
  if (args.has("ingest-cap")) {
    const long cap = args.get_int("ingest-cap", 0);
    if (cap < 0) throw UsageError("--ingest-cap must be >= 0");
    opts.ingest_cap = static_cast<std::size_t>(cap);
  }
  if (args.has("overload")) {
    const std::string policy = args.get("overload");
    if (policy == "block") {
      opts.overload = engine::OverloadPolicy::kBlock;
    } else if (policy == "shed") {
      opts.overload = engine::OverloadPolicy::kShed;
    } else if (policy == "degrade") {
      opts.overload = engine::OverloadPolicy::kDegrade;
    } else {
      throw UsageError("--overload must be block, shed or degrade");
    }
  }

  // --trace-out: every flush span as one JSON line. The stream must
  // outlive the engine (the sink runs under the flush lock until stop).
  std::ofstream trace_file;
  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty()) {
    trace_file.open(trace_out, std::ios::trunc);
    if (!trace_file) {
      std::fprintf(stderr, "parcore_cli: cannot open --trace-out %s\n",
                   trace_out.c_str());
      return 1;
    }
    opts.span_sink = [&trace_file](const obs::FlushSpan& s) {
      trace_file << obs::trace_json_line(s) << '\n';
    };
  }

  const long metrics_port = args.get_int("metrics-port", 0);
  if (metrics_port < 0 || metrics_port > 65535)
    throw UsageError("--metrics-port must be in [0, 65535]");

  DynamicGraph g(stream.num_vertices);
  ThreadTeam team(std::max(opts.workers, producers));
  engine::StreamingEngine eng(g, team, opts);

  // --metrics-port: live HTTP exposition while the run is in flight.
  // Declared after `eng`, so the server stops before the engine dies.
  obs::MetricsHttpServer http;
  if (args.has("metrics-port")) {
    if (!http.start(
            static_cast<int>(metrics_port),
            [&eng] { return obs::prometheus_text(eng.metric_rows()); },
            [&eng] { return metrics_summary(eng); })) {
      std::fprintf(stderr, "parcore_cli: cannot bind metrics port %ld\n",
                   metrics_port);
      return 1;
    }
    std::printf("metrics: http://127.0.0.1:%d/metrics (and /summary)\n",
                http.port());
  }
  eng.start();

  const std::vector<std::vector<GraphUpdate>> streams =
      partition_updates_by_edge(ops, static_cast<std::size_t>(producers));

  WallTimer timer;
  // Reader threads run the full query surface against live epoch
  // snapshots: wait-free point reads off the paged CoreView, plus a
  // periodic core summary (histogram scan) — they never block a flush.
  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> point_reads{0};
  std::atomic<std::uint64_t> summaries{0};
  std::vector<std::thread> reader_threads;
  for (long r = 0; r < readers; ++r)
    reader_threads.emplace_back([&eng, &stop_readers, &point_reads,
                                 &summaries, r] {
      Rng rng(0x5eed + static_cast<std::uint64_t>(r));
      std::uint64_t reads = 0, sums = 0;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        auto snap = eng.snapshot();
        const std::size_t n = snap->num_vertices();
        if (n == 0) continue;
        for (int i = 0; i < 1024; ++i) {
          volatile CoreValue c =
              snap->core(static_cast<VertexId>(rng.bounded(n)));
          (void)c;
        }
        reads += 1024;
        if (++sums % 64 == 0) (void)summarize_cores(snap->view);
      }
      point_reads.fetch_add(reads, std::memory_order_relaxed);
      summaries.fetch_add(sums / 64, std::memory_order_relaxed);
    });

  // Graceful shutdown: on SIGINT/SIGTERM the producers stop submitting
  // at their next op, the engine drains what was admitted and takes its
  // shutdown checkpoint, and the report below still prints.
  g_interrupted = 0;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  std::atomic<std::uint64_t> submitted{0};
  for (const auto& s : streams)
    threads.emplace_back([&eng, &s, &submitted] {
      std::uint64_t mine = 0;
      for (const GraphUpdate& u : s) {
        if (g_interrupted != 0) break;
        eng.submit(u);
        ++mine;
      }
      submitted.fetch_add(mine, std::memory_order_relaxed);
    });
  for (auto& t : threads) t.join();
  eng.stop();
  stop_readers.store(true);
  for (auto& t : reader_threads) t.join();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  const bool interrupted = g_interrupted != 0;
  const double sec = timer.elapsed_ms() / 1000.0;

  if (interrupted)
    std::printf("interrupted: stopped after %llu of %zu ops; engine "
                "drained and shut down cleanly\n",
                static_cast<unsigned long long>(submitted.load()),
                ops.size());

  const engine::EngineStats stats = eng.stats();
  auto snap = eng.snapshot();
  std::printf(
      "served %zu ops with %d producers in %.2f s (%.1f kups)\n"
      "  epochs %llu, applied +%llu/-%llu, coalesced: %llu pairs, "
      "%llu dups, %llu noops, %llu rejected\n"
      "  flush p50 %.2f ms, p99 %.2f ms; final epoch %llu, max core %d\n",
      ops.size(), producers, sec,
      sec > 0 ? static_cast<double>(ops.size()) / sec / 1000.0 : 0.0,
      static_cast<unsigned long long>(stats.epochs),
      static_cast<unsigned long long>(stats.applied_inserts),
      static_cast<unsigned long long>(stats.applied_removes),
      static_cast<unsigned long long>(stats.coalesce.annihilated_pairs),
      static_cast<unsigned long long>(stats.coalesce.duplicates),
      static_cast<unsigned long long>(stats.coalesce.noops),
      static_cast<unsigned long long>(stats.coalesce.rejected),
      static_cast<double>(stats.flush_us.quantile_upper(0.5)) / 1000.0,
      static_cast<double>(stats.flush_us.quantile_upper(0.99)) / 1000.0,
      static_cast<unsigned long long>(snap->epoch), snap->max_core);
  std::printf(
      "  snapshot publish p50 %.0f us, p99 %.0f us; %llu pages cloned "
      "(page %zu cores)\n",
      static_cast<double>(stats.publish_us.quantile_upper(0.5)),
      static_cast<double>(stats.publish_us.quantile_upper(0.99)),
      static_cast<unsigned long long>(stats.publish_pages_cloned.sum),
      snap->view.page_size());
  if (readers > 0)
    std::printf(
        "  readers: %ld threads, %llu point reads (%.0f k/s), "
        "%llu summaries\n",
        readers, static_cast<unsigned long long>(point_reads.load()),
        sec > 0 ? static_cast<double>(point_reads.load()) / sec / 1000.0
                : 0.0,
        static_cast<unsigned long long>(summaries.load()));
  // Per-phase pipeline decomposition, summed over every flush — the
  // same partition each --trace-out span carries per flush.
  {
    const engine::EngineStats::PhaseTotals& ph = stats.phases;
    const double total_ms =
        static_cast<double>(ph.repair_us + ph.drain_us + ph.coalesce_us +
                            ph.wal_us + ph.apply_us + ph.om_compact_us +
                            ph.publish_us + ph.checkpoint_us) /
        1000.0;
    std::printf(
        "  phases (ms, all flushes): repair %.1f, drain %.1f, "
        "coalesce %.1f, wal %.1f, apply %.1f, om-compact %.1f, "
        "publish %.1f, "
        "checkpoint %.1f (sum %.1f)\n"
        "  workers: busy %.1f ms, idle %.1f ms (%.0f%% utilised)\n",
        static_cast<double>(ph.repair_us) / 1000.0,
        static_cast<double>(ph.drain_us) / 1000.0,
        static_cast<double>(ph.coalesce_us) / 1000.0,
        static_cast<double>(ph.wal_us) / 1000.0,
        static_cast<double>(ph.apply_us) / 1000.0,
        static_cast<double>(ph.om_compact_us) / 1000.0,
        static_cast<double>(ph.publish_us) / 1000.0,
        static_cast<double>(ph.checkpoint_us) / 1000.0, total_ms,
        static_cast<double>(ph.worker_busy_us) / 1000.0,
        static_cast<double>(ph.worker_idle_us) / 1000.0,
        ph.worker_busy_us + ph.worker_idle_us > 0
            ? 100.0 * static_cast<double>(ph.worker_busy_us) /
                  static_cast<double>(ph.worker_busy_us + ph.worker_idle_us)
            : 0.0);
  }
  if (!trace_out.empty())
    std::printf("  trace: %llu spans -> %s (ring retains last %zu)\n",
                static_cast<unsigned long long>(eng.trace().recorded()),
                trace_out.c_str(), eng.trace().capacity());
  if (opts.ingest_cap > 0)
    std::printf(
        "  admission (cap %zu, %s): %llu shed, %llu block waits "
        "(%.1f ms blocked), %llu compacted away; overloaded %s "
        "(%llu overload flushes)\n",
        opts.ingest_cap,
        opts.overload == engine::OverloadPolicy::kBlock     ? "block"
        : opts.overload == engine::OverloadPolicy::kShed    ? "shed"
                                                            : "degrade",
        static_cast<unsigned long long>(stats.admission.shed),
        static_cast<unsigned long long>(stats.admission.block_waits),
        static_cast<double>(stats.admission.blocked_us) / 1000.0,
        static_cast<unsigned long long>(stats.admission.compacted),
        stats.overloaded ? "yes" : "no",
        static_cast<unsigned long long>(stats.overload_flushes));
  if (!opts.durability.dir.empty())
    std::printf(
        "  durability: %llu checkpoints, %llu WAL frames (%llu bytes, "
        "%llu fsyncs) -> %s\n",
        static_cast<unsigned long long>(stats.durability.checkpoints),
        static_cast<unsigned long long>(stats.durability.wal_frames),
        static_cast<unsigned long long>(stats.durability.wal_bytes),
        static_cast<unsigned long long>(stats.durability.wal_fsyncs),
        opts.durability.dir.c_str());
  if (!opts.durability.dir.empty() &&
      (stats.durability_retries > 0 || stats.durability_degraded ||
       stats.durability_rearms > 0))
    std::printf(
        "  durable-I/O faults: %llu retried writes, %llu re-arms%s\n",
        static_cast<unsigned long long>(stats.durability_retries),
        static_cast<unsigned long long>(stats.durability_rearms),
        stats.durability_degraded
            ? " -- DEGRADED to memory-only (durability lost; see "
              "docs/ROBUSTNESS.md)"
            : "");
  if (opts.reverify_interval_ms > 0.0)
    std::printf("  re-verify: %llu full decompositions, %llu mismatched "
                "cores, %llu self-healing repairs\n",
                static_cast<unsigned long long>(stats.verify_runs),
                static_cast<unsigned long long>(stats.verify_mismatches),
                static_cast<unsigned long long>(stats.repairs));
  // OM reclamation, worker counters, the arena footprint and the rest
  // of the metrics all render through the shared summary exporter —
  // the same bytes serve's /summary endpoint and `stats --live` return.
  std::fputs(metrics_summary(eng).c_str(), stdout);

  if (interrupted) {
    // The producers were cut short mid-stream, so the full-stream
    // replay below would not describe the graph the engine built.
    std::printf("interrupted: skipping final bz_decompose verification "
                "(op stream was cut short); state was drained and "
                "checkpointed\n");
    return 0;
  }
  if (stats.admission.shed > 0 && !args.has("no-verify")) {
    std::printf("shed %llu ops under overload: skipping final "
                "bz_decompose verification (the accepted subset is "
                "load-dependent; tests/ingest_test.cpp covers its "
                "differential correctness)\n",
                static_cast<unsigned long long>(stats.admission.shed));
    return 0;
  }
  if (!args.has("no-verify")) {
    // Per-edge op order is preserved inside one producer stream, so the
    // final edge set is schedule-independent: compare against a fresh
    // decomposition of the sequential replay.
    std::vector<io::TimedUpdate> replay;
    replay.reserve(ops.size());
    for (const GraphUpdate& u : ops)
      replay.push_back(io::TimedUpdate{u, 0});
    DynamicGraph fresh = DynamicGraph::from_edges(
        stream.num_vertices, io::replay_final_edges(replay));
    const Decomposition expect = bz_decompose(fresh);
    if (fresh.num_edges() != g.num_edges() ||
        !cores_match(snap->materialize(), expect.core)) {
      std::fprintf(stderr, "FAILED: served cores diverge from bz_decompose "
                           "of the replayed final graph\n");
      return 1;
    }
    std::printf("verified: served cores match bz_decompose of the final "
                "graph (%zu edges)\n",
                fresh.num_edges());
  }
  return 0;
}

// ---------------------------------------------------------------- recover

constexpr const char* kRecoverUsage =
    R"(usage: parcore_cli recover --dir DIR [options]

Crash recovery (docs/DURABILITY.md): loads the newest valid checkpoint
from a `serve --checkpoint-dir` directory, replays the WAL tail through
the normal maintain path, and differentially verifies the recovered
core numbers against a fresh decomposition of the replayed graph.

  --dir DIR      checkpoint + WAL directory written by serve
  --workers W    maintainer workers for the WAL replay, also used by the
                 parallel verify oracle (default 4)
  --verify MODE  verify oracle: parallel (exact peel, default), bz
                 (sequential), or off (skip the cross-check)

Exits 0 when recovery succeeds (and, unless the verify is off, the
recovered cores match the oracle); 1 on unrecoverable corruption or a
failed verification.
)";

int cmd_recover(const Args& args) {
  const std::string dir = args.get("dir");
  if (dir.empty()) return usage_error(kRecoverUsage, "--dir is required");

  durability::RecoveryOptions ropts;
  ropts.dir = dir;
  ropts.workers = static_cast<int>(args.get_positive("workers", 4));
  const std::string verify_mode = args.get("verify", "parallel");
  if (verify_mode == "off")
    ropts.verify = false;
  else if (verify_mode == "bz")
    ropts.verify_algo = durability::VerifyAlgo::kBz;
  else if (verify_mode == "parallel")
    ropts.verify_algo = durability::VerifyAlgo::kParallel;
  else
    return usage_error(kRecoverUsage,
                       "unknown --verify mode '" + verify_mode + "'");

  WallTimer timer;
  DynamicGraph g;
  ThreadTeam team(std::max(ropts.workers, 1));
  durability::RecoveryResult res;
  auto maintainer = durability::recover(ropts, g, team, &res);
  const double ms = timer.elapsed_ms();

  std::printf(
      "recovered %s in %.1f ms\n"
      "  checkpoint epoch %llu (%zu damaged generation%s skipped), "
      "replayed %zu WAL frame%s (%zu ops)%s\n"
      "  state: n=%zu m=%zu, max core %d, final epoch %llu\n",
      dir.c_str(), ms, static_cast<unsigned long long>(res.checkpoint_epoch),
      res.checkpoints_skipped, res.checkpoints_skipped == 1 ? "" : "s",
      res.frames_replayed, res.frames_replayed == 1 ? "" : "s",
      res.edges_replayed,
      res.torn_tail ? ", torn tail discarded" : "",
      res.num_vertices, res.num_edges, res.max_core,
      static_cast<unsigned long long>(res.final_epoch));
  if (res.verified)
    std::printf("verified: recovered cores match a fresh %s decomposition "
                "of the replayed graph (%.1f ms)\n",
                res.verify_algo, res.verify_ms);
  else
    std::printf("verification skipped (--verify off)\n");
  return 0;
}

}  // namespace

int cli_main(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return cli_main(args);
}

int cli_main(const std::vector<std::string>& args) {
  struct Command {
    const char* name;
    const char* usage;
    std::set<std::string> options;
    std::set<std::string> flags;
    int (*run)(const Args&);
  };
  static const std::vector<Command> commands{
      {"decompose", kDecomposeUsage,
       {"input", "algo", "workers", "top"}, {"histogram"},
       cmd_decompose},
      {"convert", kConvertUsage, {"input", "output"}, {}, cmd_convert},
      {"maintain", kMaintainUsage,
       {"input", "algo", "window", "batch", "workers", "steps"},
       {"verify"}, cmd_maintain},
      {"serve", kServeUsage,
       {"input", "producers", "readers", "workers", "repeat", "metrics-port",
        "trace-out", "checkpoint-dir", "checkpoint-interval", "reverify",
        "ingest-cap", "overload"},
       {"no-verify"}, cmd_serve},
      {"recover", kRecoverUsage, {"dir", "workers", "verify"}, {},
       cmd_recover},
      {"stats", kStatsUsage, {"input", "live"}, {}, cmd_stats},
  };

  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    std::fputs(kGlobalUsage, args.empty() ? stderr : stdout);
    return args.empty() ? 2 : 0;
  }
  if (args[0] == "help") {
    // Strict like every subcommand: `help` alone prints the global
    // text, `help <command>` that command's usage; anything else is a
    // usage error (exit 2), never silently ignored.
    if (args.size() == 1) {
      std::fputs(kGlobalUsage, stdout);
      return 0;
    }
    if (args.size() == 2) {
      for (const Command& c : commands) {
        if (args[1] == c.name) {
          std::fputs(c.usage, stdout);
          return 0;
        }
      }
      return usage_error(kGlobalUsage, "unknown command '" + args[1] + "'");
    }
    return usage_error(kGlobalUsage, "help takes at most one command name");
  }
  const std::string& cmd = args[0];

  for (const Command& c : commands) {
    if (cmd != c.name) continue;
    Args parsed(args, 1, c.options, c.flags);
    if (parsed.help()) {
      std::fputs(c.usage, stdout);
      return 0;
    }
    if (!parsed.error().empty()) return usage_error(c.usage, parsed.error());
    try {
      return c.run(parsed);
    } catch (const UsageError& e) {
      return usage_error(c.usage, e.what());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "parcore_cli: %s\n", e.what());
      return 1;
    }
  }
  return usage_error(kGlobalUsage, "unknown command '" + cmd + "'");
}

}  // namespace parcore::cli
