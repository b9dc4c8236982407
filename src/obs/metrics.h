// Metric rows — the exporters' input (obs/export.h).
//
// A streaming engine counts in its own EngineStats and renders them as
// rows (StreamingEngine::metric_rows); there is no process-global
// registry, so two engines in one process never merge their numbers.
// Three row kinds: counters (monotonic), gauges (signed point values)
// and histograms in fixed power-of-two buckets (`Histogram`, a plain
// single-owner struct the engine records into under its own lock).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace parcore {
class SizeHistogram;
}  // namespace parcore

namespace parcore::obs {

/// Fixed-bucket histogram: bucket b holds values with bit_width == b,
/// i.e. bucket 0 is {0}, bucket b covers [2^(b-1), 2^b - 1]. The last
/// bucket absorbs everything >= 2^(kBuckets-2) (the +Inf bucket).
/// Single-owner: record() is not synchronised.
struct Histogram {
  static constexpr std::size_t kBuckets = 40;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

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

/// `h` folded into power-of-two buckets for export. A finite bucket is
/// filled only when its whole range lies in h's exact range
/// [0, max_exact], so every finite bucket is exact; overflow samples,
/// and exact ones in the bucket straddling max_exact, land only in the
/// last (+Inf) bucket. count and sum are exact.
Histogram snapshot_of(const SizeHistogram& h);

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
  Histogram snap;
};

/// A point-in-time read of one engine's metrics
/// (StreamingEngine::metric_rows), each list in export order.
struct Rows {
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

}  // namespace parcore::obs
