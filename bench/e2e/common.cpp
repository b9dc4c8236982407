#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

void write_number(std::FILE* f, double v) {
  if (std::isfinite(v))
    std::fprintf(f, "%.17g", v);
  else
    std::fputs("null", f);  // run.py rejects it by name
}

void write_escaped(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - process_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(process_epoch() + std::chrono::nanoseconds(t));
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::extra(const std::string& name, double value,
                   const std::string& unit) {
  extra_.push_back({name, value, unit});
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "parcore_e2e: CORRECTNESS FAILURE: %s\n", what.c_str());
}

bool Report::write_json(const std::string& path, const Config& cfg) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  const std::uint64_t failed = correct_ ? failed_ : attempted;
  std::fputs("{\"workload\": ", f);
  write_escaped(f, cfg.workload);
  std::fprintf(f,
               ", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %s, "
               "\"smoke\": %s, \"correct\": %s, "
               "\"attempted\": %llu, \"failed\": %llu",
               static_cast<unsigned long long>(cfg.seed), cfg.seconds,
               cfg.trace ? "true" : "false", cfg.smoke ? "true" : "false",
               correct_ ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  auto group = [&](const char* key, const std::vector<Metric>& ms) {
    std::fprintf(f, ", \"%s\": {", key);
    for (std::size_t i = 0; i < ms.size(); ++i) {
      std::fputs(i == 0 ? "" : ", ", f);
      write_escaped(f, ms[i].name);
      std::fputs(": {\"value\": ", f);
      write_number(f, ms[i].value);
      std::fputs(", \"unit\": ", f);
      write_escaped(f, ms[i].unit);
      std::fputc('}', f);
    }
    std::fputc('}', f);
  };
  group("e2e", e2e_);
  group("layer", layer_);
  group("extra", extra_);
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

std::uint64_t Spans::open(const char* name, std::uint64_t parent,
                          std::uint64_t group) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, now_ns(), -1, parent, group});
  return spans_.size();
}

void Spans::close(std::uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

bool Spans::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %llu, \"group\": %llu}\n",
                 i + 1, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group));
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // An exact rank, or equal neighbours, needs no interpolation; skipping
  // it keeps a finite v[lo] before a +inf (unseen) v[hi] from becoming
  // inf * 0 = NaN.
  if (frac == 0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool remove_tree(const std::string& path) {
  if (path.empty()) return true;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return !ec;
}

}  // namespace e2e
