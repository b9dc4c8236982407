#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "graph/edge_list.h"
#include "io/graph_reader.h"
#include "support/env.h"
#include "support/rng.h"

namespace parcore::bench {

BenchEnv bench_env() {
  BenchEnv env;
  env.fast = env_flag("PARCORE_BENCH_FAST");
  env.scale = env_double("PARCORE_BENCH_SCALE", env.fast ? 0.04 : 0.2);
  env.batch = static_cast<std::size_t>(
      env_int("PARCORE_BENCH_BATCH", env.fast ? 1000 : 5000));
  env.reps = static_cast<int>(env_int("PARCORE_BENCH_REPS", 1));
  env.max_workers = static_cast<int>(env_int("PARCORE_BENCH_MAX_WORKERS", 16));
  env.input = env_str("PARCORE_BENCH_INPUT", "");
  return env;
}

std::vector<int> worker_sweep(int max_workers) {
  std::vector<int> sweep;
  for (int w = 1; w <= max_workers; w *= 2) sweep.push_back(w);
  if (sweep.empty()) sweep.push_back(1);
  return sweep;
}

PreparedWorkload prepare_workload(const SuiteSpec& spec, double scale,
                                  std::size_t batch_size) {
  PreparedWorkload w;
  w.spec = spec;
  batch_size = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(batch_size) * spec.batch_factor));

  SuiteGraph sg = build_suite_graph(spec, scale);
  w.n = sg.num_vertices;

  if (!sg.temporal.empty()) {
    // Temporal protocol (paper §6.2): the batch is a contiguous time
    // range — the most recent edges of the stream.
    std::vector<Edge> all;
    all.reserve(sg.temporal.size());
    for (const TimestampedEdge& te : sg.temporal) all.push_back(te.e);
    canonicalize_edges(all);
    batch_size = std::min(batch_size, all.size() / 2);
    w.batch.assign(all.end() - static_cast<std::ptrdiff_t>(batch_size),
                   all.end());
    w.base_edges.assign(all.begin(),
                        all.end() - static_cast<std::ptrdiff_t>(batch_size));
  } else {
    // Static protocol: sample the batch uniformly from the graph's
    // edges; the base graph is the remainder.
    std::vector<Edge> all = sg.edges;
    canonicalize_edges(all);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (char c : spec.name) h = h * 131 + static_cast<unsigned>(c);
    Rng rng(h);
    rng.shuffle(all);
    batch_size = std::min(batch_size, all.size() / 2);
    w.batch.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                                  batch_size));
    w.base_edges.assign(all.begin() + static_cast<std::ptrdiff_t>(batch_size),
                        all.end());
  }
  return w;
}

PreparedWorkload prepare_workload_from_file(const std::string& path,
                                            std::size_t batch_size) {
  io::GraphData data = io::read_graph(path);  // filtered + compacted

  PreparedWorkload w;
  w.spec.name = path.substr(path.find_last_of('/') + 1);
  w.spec.temporal = data.has_timestamps;
  w.n = data.num_vertices;

  std::vector<Edge> all = io::static_edges(data);
  batch_size = std::min(batch_size, all.size() / 2);
  if (data.has_timestamps) {
    // Temporal protocol: the batch is the most recent time range.
    std::stable_sort(data.edges.begin(), data.edges.end(),
                     [](const TimestampedEdge& a, const TimestampedEdge& b) {
                       return a.time < b.time;
                     });
    all.clear();
    for (const TimestampedEdge& te : data.edges) all.push_back(te.e);
  } else {
    // Static protocol: uniform sample, seeded from the file name so a
    // dataset always yields the same split.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (char c : w.spec.name) h = h * 131 + static_cast<unsigned>(c);
    Rng rng(h);
    rng.shuffle(all);
  }
  w.batch.assign(all.end() - static_cast<std::ptrdiff_t>(batch_size),
                 all.end());
  w.base_edges.assign(all.begin(),
                      all.end() - static_cast<std::ptrdiff_t>(batch_size));
  return w;
}

std::vector<PreparedWorkload> suite_or_file_workloads(
    const std::vector<SuiteSpec>& specs, const BenchEnv& env) {
  std::vector<PreparedWorkload> out;
  if (!env.input.empty()) {
    out.push_back(prepare_workload_from_file(env.input, env.batch));
    return out;
  }
  out.reserve(specs.size());
  for (const SuiteSpec& spec : specs)
    out.push_back(prepare_workload(spec, env.scale, env.batch));
  return out;
}

DynamicGraph base_graph(const PreparedWorkload& w) {
  return DynamicGraph::from_edges(w.n, w.base_edges);
}

AlgoTimes time_parallel_order(const PreparedWorkload& w, ThreadTeam& team,
                              int workers, int reps) {
  DynamicGraph g = base_graph(w);
  ParallelOrderMaintainer m(g, team);
  std::vector<double> ins, rem;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    m.insert_batch(w.batch, workers);
    ins.push_back(t.elapsed_ms());
    t.reset();
    m.remove_batch(w.batch, workers);
    rem.push_back(t.elapsed_ms());
  }
  return AlgoTimes{RunStats::from(ins), RunStats::from(rem)};
}

EngineCellResult run_engine_cell(
    std::size_t n, const std::vector<Edge>& base,
    const std::vector<std::vector<GraphUpdate>>& streams, ThreadTeam& team,
    const engine::StreamingEngine::Options& opts) {
  DynamicGraph g = DynamicGraph::from_edges(n, base);
  engine::StreamingEngine eng(g, team, opts);
  eng.start();

  std::size_t total_ops = 0;
  for (const auto& s : streams) total_ops += s.size();

  WallTimer timer;
  std::vector<std::thread> producers;
  producers.reserve(streams.size());
  for (const auto& stream : streams) {
    producers.emplace_back([&eng, &stream] {
      for (const GraphUpdate& u : stream) eng.submit(u);
    });
  }
  for (auto& t : producers) t.join();
  eng.stop();  // drains the tail; included in the measured time
  const double sec = timer.elapsed_ms() / 1000.0;

  EngineCellResult r;
  r.seconds = sec;
  r.updates_per_sec = sec > 0 ? static_cast<double>(total_ops) / sec : 0.0;
  r.stats = eng.stats();
  return r;
}

std::vector<std::vector<GraphUpdate>> producer_update_streams(
    const std::vector<Edge>& pool, int producers, std::size_t ops_total) {
  std::vector<std::vector<GraphUpdate>> streams;
  streams.reserve(static_cast<std::size_t>(producers));
  const std::size_t slice = pool.size() / static_cast<std::size_t>(producers);
  const std::size_t per = ops_total / static_cast<std::size_t>(producers);
  for (int p = 0; p < producers; ++p) {
    Rng rng(0xbe7c4 + static_cast<std::uint64_t>(p));
    std::span<const Edge> universe(
        pool.data() + static_cast<std::size_t>(p) * slice, slice);
    streams.push_back(gen_update_stream(universe, per, 0.45, 0.6, rng));
  }
  return streams;
}

AlgoTimes time_je(const PreparedWorkload& w, ThreadTeam& team, int workers,
                  int reps) {
  DynamicGraph g = base_graph(w);
  JeMaintainer m(g, team);
  std::vector<double> ins, rem;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    m.insert_batch(w.batch, workers);
    ins.push_back(t.elapsed_ms());
    t.reset();
    m.remove_batch(w.batch, workers);
    rem.push_back(t.elapsed_ms());
  }
  return AlgoTimes{RunStats::from(ins), RunStats::from(rem)};
}

Json& Json::set(const std::string& key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  items_.push_back(std::move(value));
  return *this;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kDouble: {
      std::ostringstream os;
      os << std::setprecision(12) << num_;
      out += os.str();
      break;
    }
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += pad;
        append_escaped(out, members_[i].first);
        out += ": ";
        members_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += pad;
        items_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::string write_bench_json(const std::string& name, const Json& payload) {
  const std::string dir = env_str("PARCORE_BENCH_JSON_DIR", ".");
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream f(path);
  f << payload.dump(2) << "\n";
  f.close();
  if (!f) {
    std::fprintf(stderr, "FAILED to write %s (bad PARCORE_BENCH_JSON_DIR?)\n",
                 path.c_str());
    return "";
  }
  std::printf("wrote %s\n", path.c_str());
  return path;
}

Json engine_cell_json(const std::string& policy, int producers, int workers,
                      const EngineCellResult& r) {
  const double p50_ms =
      static_cast<double>(r.stats.flush_us.quantile_upper(0.5)) / 1000.0;
  const double p99_ms =
      static_cast<double>(r.stats.flush_us.quantile_upper(0.99)) / 1000.0;
  return Json::object()
      .set("policy", policy)
      .set("producers", producers)
      .set("workers", workers)
      .set("ops", std::uint64_t{r.stats.submitted})
      .set("seconds", r.seconds)
      .set("updates_per_sec", r.updates_per_sec)
      .set("epochs", r.stats.epochs)
      .set("p50_flush_ms", p50_ms)
      .set("p99_flush_ms", p99_ms)
      .set("applied_inserts", r.stats.applied_inserts)
      .set("applied_removes", r.stats.applied_removes)
      .set("annihilated_pairs", std::uint64_t{r.stats.coalesce.annihilated_pairs})
      .set("duplicates", std::uint64_t{r.stats.coalesce.duplicates})
      .set("noops", std::uint64_t{r.stats.coalesce.noops})
      // Per-phase pipeline decomposition (EngineStats::PhaseTotals,
      // microseconds summed over every flush of the cell). The cell
      // runs without durability or re-verification, so these five
      // phases partition each flush window and their sum tracks the
      // cell's total flush time.
      .set("drain_us", r.stats.phases.drain_us)
      .set("coalesce_us", r.stats.phases.coalesce_us)
      .set("apply_us", r.stats.phases.apply_us)
      .set("om_compact_us", r.stats.phases.om_compact_us)
      .set("publish_us", r.stats.phases.publish_us)
      .set("worker_busy_us", r.stats.phases.worker_busy_us)
      .set("worker_idle_us", r.stats.phases.worker_idle_us);
}

Table::Table(std::vector<std::string> headers) {
  rows_.push_back(std::move(headers));
}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "  ";
    for (std::size_t i = 0; i < rows_[r].size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
         << rows_[r][i];
    }
    os << "\n";
    if (r == 0) {
      os << "  ";
      for (std::size_t i = 0; i < widths.size(); ++i)
        os << std::string(widths[i], '-') << "  ";
      os << "\n";
    }
  }
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

}  // namespace parcore::bench
