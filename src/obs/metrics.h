// Low-overhead metrics registry — the observability substrate (ISSUE 6).
//
// Three metric kinds, all safe to record from any thread with no lock:
//   - Counter:   monotonic; per-thread sharded cells (one cache line
//                each) so P producers incrementing the same counter
//                never contend on one atomic. Reads aggregate shards.
//   - Gauge:     a settable signed value (epoch, threshold, bytes).
//                Written by one owner at a time; a single atomic.
//   - Histogram: fixed power-of-two buckets (value -> bit_width(value)),
//                per-thread sharded like counters. Approximate
//                quantiles come from the cumulative bucket counts.
//
// One kill switch: the PARCORE_OBS environment variable ("off"/"0"/
// "false" disables; anything else, or unset, enables). Disabled
// recording is one relaxed atomic load and a predicted branch.
//
// Handles returned by MetricsRegistry are stable for the registry's
// lifetime — register once (cache the reference), record forever.
// `registry()` is the process-global instance for process-level
// metrics (slab arena, snapshot index, JE fallbacks); a streaming
// engine counts in its own EngineStats and renders them as rows
// (StreamingEngine::metric_rows). Tests construct private registries.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sync/annotations.h"
#include "sync/mutex.h"

namespace parcore {
class SizeHistogram;
}  // namespace parcore

namespace parcore::obs {

/// Runtime gate (PARCORE_OBS env var, cached on first call).
bool enabled();
/// Overrides the gate (benchmarks measuring obs-on vs obs-off cells).
void set_enabled(bool on);

namespace detail {

inline constexpr std::size_t kShards = 16;

/// Stable per-thread shard index in [0, kShards): threads are assigned
/// round-robin on first use, so up to kShards concurrent recorders
/// never share a cell.
std::size_t shard_index();

}  // namespace detail

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) {
    if (!enabled()) return;
    cells_[detail::shard_index()].v.fetch_add(delta,
                                              std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Sum over all shards. Concurrent adds may or may not be included
  /// (each shard is read once, relaxed) — monotonic, never torn.
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, detail::kShards> cells_{};
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    if (!enabled()) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram: bucket b holds values with bit_width == b,
/// i.e. bucket 0 is {0}, bucket b covers [2^(b-1), 2^b - 1]. The last
/// bucket absorbs everything >= 2^(kBuckets-2) (the +Inf bucket).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) {
    if (!enabled()) return;
    Shard& s = shards_[detail::shard_index()];
    s.counts[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  static std::size_t bucket_of(std::uint64_t value) {
    const auto b = static_cast<std::size_t>(std::bit_width(value));
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket b (2^b - 1); the last bucket is
  /// unbounded and reports UINT64_MAX.
  static std::uint64_t bucket_upper(std::size_t b) {
    if (b + 1 >= kBuckets) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << b) - 1;
  }

  /// Also a plain single-owner histogram (record() without atomics or
  /// the runtime gate), which is how EngineStats keeps its own.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void record(std::uint64_t value) {
      ++counts[bucket_of(value)];
      ++count;
      sum += value;
    }

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Upper bound of the bucket containing quantile q (0 for empty).
    std::uint64_t quantile_upper(double q) const;
  };

  /// Aggregates all shards; concurrent records may straddle the scan
  /// (count/sum are consistent per shard, approximate across shards).
  Snapshot snapshot() const {
    Snapshot out;
    for (const Shard& s : shards_) {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint64_t c = s.counts[b].load(std::memory_order_relaxed);
        out.counts[b] += c;
        out.count += c;
      }
      out.sum += s.sum.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

/// `h` folded into power-of-two buckets for export. A finite bucket is
/// filled only when its whole range lies in h's exact range
/// [0, max_exact], so every finite bucket is exact; overflow samples,
/// and exact ones in the bucket straddling max_exact, land only in the
/// last (+Inf) bucket. count and sum are exact.
Histogram::Snapshot snapshot_of(const SizeHistogram& h);

struct CounterRow {
  std::string name;
  std::uint64_t value;
};
struct GaugeRow {
  std::string name;
  std::int64_t value;
};
struct HistogramRow {
  std::string name;
  Histogram::Snapshot snap;
};

/// A point-in-time read of a set of metrics, the exporters' input:
/// MetricsRegistry::collect() yields the process rows and
/// StreamingEngine::metric_rows() one engine's.
struct Rows {
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

/// Named metric families. Registration (first lookup of a name) takes a
/// mutex; recording through a returned handle never does. Handles stay
/// valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Point-in-time read of every registered metric, each list in
  /// registration order (stable export ordering).
  Rows collect() const;

 private:
  template <typename T>
  struct Family {
    std::vector<std::pair<std::string, std::unique_ptr<T>>> entries;
    T& get_or_create(std::string_view name) {
      for (auto& [n, m] : entries)
        if (n == name) return *m;
      entries.emplace_back(std::string(name), std::make_unique<T>());
      return *entries.back().second;
    }
  };

  mutable Mutex mu_;
  Family<Counter> counters_ PARCORE_GUARDED_BY(mu_);
  Family<Gauge> gauges_ PARCORE_GUARDED_BY(mu_);
  Family<Histogram> histograms_ PARCORE_GUARDED_BY(mu_);
};

/// The process-global registry for process-level metrics.
MetricsRegistry& registry();

/// `rows` followed by the process rows (registry().collect()), kind by
/// kind: what serve's endpoints and an engine's reporter thread render.
Rows with_process_rows(Rows rows);

}  // namespace parcore::obs
