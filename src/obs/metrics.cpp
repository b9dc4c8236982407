#include "obs/metrics.h"

#include "support/histogram.h"

namespace parcore::obs {

std::uint64_t Histogram::quantile_upper(double q) const {
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

Histogram snapshot_of(const SizeHistogram& h) {
  Histogram s;
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

}  // namespace parcore::obs
