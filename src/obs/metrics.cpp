#include "obs/metrics.h"

#include <iterator>

#include "support/env.h"
#include "support/histogram.h"

namespace parcore::obs {

namespace {

bool env_says_off() {
  // Via support/env: parcore_lint.py forbids raw getenv outside that
  // module (and the durability fault shims).
  const std::string v = env_str("PARCORE_OBS", "");
  if (v.empty()) return false;  // default: on
  return v == "0" || v == "off" || v == "false" || v == "OFF";
}

// -1 = uninitialised, 0 = off, 1 = on.
std::atomic<int> g_enabled{-1};

}  // namespace

bool enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = env_says_off() ? 0 : 1;
    // A racing first call computes the same value; last store wins.
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace detail

std::uint64_t Histogram::Snapshot::quantile_upper(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (target == 0) target = 1;
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    acc += counts[b];
    if (acc >= target) return bucket_upper(b);
  }
  return bucket_upper(kBuckets - 1);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexGuard lk(mu_);
  return counters_.get_or_create(name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexGuard lk(mu_);
  return gauges_.get_or_create(name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  MutexGuard lk(mu_);
  return histograms_.get_or_create(name);
}

Histogram::Snapshot snapshot_of(const SizeHistogram& h) {
  Histogram::Snapshot s;
  const std::size_t max_exact = h.max_exact();
  for (std::size_t v = 0; v <= max_exact; ++v) {
    const std::size_t b = Histogram::bucket_of(v);
    // The bucket straddling max_exact would miss the overflow samples
    // inside its range, so its exact samples go to +Inf as well.
    s.counts[Histogram::bucket_upper(b) <= max_exact ? b
                                                     : Histogram::kBuckets - 1] +=
        h.count_at(v);
  }
  s.counts[Histogram::kBuckets - 1] += h.overflow();
  s.count = h.total();
  s.sum = h.sum();
  return s;
}

Rows MetricsRegistry::collect() const {
  Rows rows;
  MutexGuard lk(mu_);
  rows.counters.reserve(counters_.entries.size());
  for (const auto& [name, m] : counters_.entries)
    rows.counters.push_back({name, m->value()});
  rows.gauges.reserve(gauges_.entries.size());
  for (const auto& [name, m] : gauges_.entries)
    rows.gauges.push_back({name, m->value()});
  rows.histograms.reserve(histograms_.entries.size());
  for (const auto& [name, m] : histograms_.entries)
    rows.histograms.push_back({name, m->snapshot()});
  return rows;
}

MetricsRegistry& registry() {
  static MetricsRegistry* global = new MetricsRegistry();  // never destroyed:
  // library layers record from arbitrary threads during static teardown
  return *global;
}

Rows with_process_rows(Rows rows) {
  Rows process = registry().collect();
  auto move_all = [](auto& to, auto& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  move_all(rows.counters, process.counters);
  move_all(rows.gauges, process.gauges);
  move_all(rows.histograms, process.histograms);
  return rows;
}

}  // namespace parcore::obs
