// Shared plumbing of parcore_e2e, the end-to-end benchmark program
// (README.md in this directory): run configuration, the metric report,
// in-memory spans, and small statistics helpers.
//
// The program links only the parcore library and calls only its public
// headers, so it measures what a caller of the library sees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

/// Sleeps until now_ns() >= t (no-op when t is in the past).
void sleep_until_ns(std::int64_t t);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  // length of the measured phase
  bool trace = false;     // per-layer replay + spans
  bool smoke = false;     // small inputs: checks the plumbing, not speed
  std::string scratch_dir = ".";  // WAL/checkpoint directories
};

/// One workload run's outcome. Metrics fall in three groups:
///   e2e   — BENCHMARK.json end_to_end: every workload, every run;
///   layer — BENCHMARK.json per_layer: every workload, traced runs only;
///   extra — workload-specific diagnostics, printed but not gated.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void extra(const std::string& name, double value, const std::string& unit);

  /// Adds `attempted` operations of which `failed` failed.
  void ops(std::uint64_t attempted, std::uint64_t failed);

  /// Records a correctness check. A failed check makes the run incorrect
  /// and, at write time, counts every attempted op as failed.
  void check(bool ok, const std::string& what);

  bool correct() const { return correct_; }

  /// Writes {"workload", "correct", "attempted", "failed", "e2e",
  /// "layer", "extra"} to `path`; false on I/O failure.
  bool write_json(const std::string& path, const Config& cfg) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e_, layer_, extra_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Spans recorded from the benchmark's own calls into each layer: name,
/// start, end, the causing span, and an id shared by one rep or flush.
/// Kept in memory and written as JSONL when the run ends. A disabled
/// recorder (untraced runs) records nothing.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t group);
  void close(std::uint64_t id);

  bool write_jsonl(const std::string& path) const;

  /// RAII open/close.
  class Scope {
   public:
    Scope(Spans& s, const char* name, std::uint64_t parent,
          std::uint64_t group)
        : spans_(s), id_(s.open(name, parent, group)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Spans& spans_;
    std::uint64_t id_;
  };

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t parent;
    std::uint64_t group;
  };
  bool enabled_;
  std::vector<Span> spans_;  // id = index + 1
};

/// Runs fn() inside a span and returns its wall time in nanoseconds.
template <typename Fn>
double timed(Spans& spans, const char* name, std::uint64_t parent,
             std::uint64_t group, Fn&& fn) {
  Spans::Scope scope(spans, name, parent, group);
  const std::int64_t t = now_ns();
  fn();
  return static_cast<double>(now_ns() - t);
}

/// Median; NaN for an empty sample.
double median(std::vector<double> v);

/// Set-ups per run: at least kMinSetups, then more until they have taken
/// kSetupBudgetS in all (at most kMaxSetups); setup_s is their median.
/// A set-up takes 50-120 ms, so a run times 15-40 of them: a handful
/// moved with the host's second-to-second speed.
inline constexpr int kMinSetups = 5;
inline constexpr int kMaxSetups = 64;
inline constexpr double kSetupBudgetS = 2.0;

/// Times the set-ups and keeps the last: `reset(i)` drops the previous
/// one before set-up i, `build()` makes the graph, `init()` the
/// maintainer or engine on it. Reports setup_s and, traced,
/// graph.build_ms and decomp.init_ms (medians). Smoke runs time
/// kMinSetups.
template <typename Reset, typename Build, typename Init>
void measure_setups(const Config& cfg, Report& report, Spans& spans,
                    Reset&& reset, Build&& build, Init&& init) {
  std::vector<double> setup_s, build_ms, init_ms;
  double total_s = 0;
  for (int i = 0; i < kMinSetups || (!cfg.smoke && i < kMaxSetups &&
                                     total_s < kSetupBudgetS);
       ++i) {
    reset(i);
    Spans::Scope setup(spans, "setup", 0, 0);
    build_ms.push_back(timed(spans, "graph.build", setup.id(), 0, build) /
                       1e6);
    init_ms.push_back(timed(spans, "decomp.init", setup.id(), 0, init) / 1e6);
    setup_s.push_back((build_ms.back() + init_ms.back()) / 1e3);
    total_s += setup_s.back();
  }
  report.e2e("setup_s", median(setup_s), "s");
  report.extra("setups", static_cast<double>(setup_s.size()), "count");
  if (cfg.trace) {
    report.layer("graph.build_ms", median(build_ms), "ms");
    report.layer("decomp.init_ms", median(init_ms), "ms");
  }
}

/// Linear-interpolated percentile, p in [0, 1]; NaN for an empty sample.
double percentile(std::vector<double> v, double p);

/// Peak resident set of this process (getrusage ru_maxrss), MB.
double peak_rss_mb();

/// Removes `path` recursively if present (an empty path names nothing);
/// false on failure.
bool remove_tree(const std::string& path);

}  // namespace e2e
