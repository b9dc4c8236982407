// parcore_e2e: one subcommand per benchmark workload.
//
//   parcore_e2e <workload> --json PATH [--seed N] [--seconds S] [--trace]
//               [--spans PATH] [--smoke] [--scratch DIR]
//   parcore_e2e selftest
//
// Writes the run's metrics to --json (and, with --trace, its spans to
// --spans). Exit status: 0 when every correctness check passed, 1 when
// one failed or the run threw, 2 on a usage error. run.py is the
// intended entry point; it builds this binary and reads the JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "parcore_e2e: %s\nusage: parcore_e2e "
               "batch-ba|batch-rmat|stream-burst --json PATH "
               "[--seed N] [--seconds S] [--trace] [--spans PATH] [--smoke] "
               "[--scratch DIR]\n       parcore_e2e selftest\n",
               why);
  return 2;
}

// Unit cases of the statistics helpers; run.py --smoke runs them first.
int selftest() {
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::vector<double> v;
    double p;
    double want;  // NaN: expect NaN
  };
  const Case cases[] = {
      {{3, 1, 2}, 0.5, 2},
      {{0, 10}, 0.9, 9},
      {{1, 2, 3, inf}, 0.5, 2.5},
      {{1, 2, inf}, 0.5, 2},  // exact rank before an unseen sample
      {{1, inf}, 0.9, inf},   // interpolating into an unseen sample
      {{inf, inf}, 0.5, inf},
      {{}, 0.5, std::numeric_limits<double>::quiet_NaN()},
  };
  int failed = 0;
  for (const Case& c : cases) {
    const double got = e2e::percentile(c.v, c.p);
    const bool ok = std::isnan(c.want) ? std::isnan(got) : got == c.want;
    if (!ok) {
      std::fprintf(stderr, "parcore_e2e selftest: percentile(p=%g) of %zu "
                   "values gave %g, want %g\n", c.p, c.v.size(), got, c.want);
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing workload");
  if (std::string(argv[1]) == "selftest") return selftest();
  e2e::Config cfg;
  cfg.workload = argv[1];
  std::string json_path, spans_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      cfg.trace = true;
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      if (!(cfg.seconds > 0 && cfg.seconds <= 600))
        return usage("--seconds must be in (0, 600]");
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--spans") {
      spans_path = argv[++i];
    } else if (arg == "--scratch") {
      cfg.scratch_dir = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (json_path.empty()) return usage("--json is required");

  e2e::Report report;
  e2e::Spans spans(cfg.trace);
  try {
    if (cfg.workload == "batch-ba")
      e2e::run_batch(cfg, "BA", report, spans);
    else if (cfg.workload == "batch-rmat")
      e2e::run_batch(cfg, "RMAT", report, spans);
    else if (cfg.workload == "stream-burst")
      e2e::run_stream_burst(cfg, report, spans);
    else
      return usage(("unknown workload " + cfg.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parcore_e2e: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  report.e2e("peak_rss_mb", e2e::peak_rss_mb(), "MB");

  if (!report.write_json(json_path, cfg)) {
    std::fprintf(stderr, "parcore_e2e: cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (cfg.trace && !spans_path.empty() && !spans.write_jsonl(spans_path)) {
    std::fprintf(stderr, "parcore_e2e: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}
