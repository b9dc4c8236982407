#include "obs/metrics.h"

#include <cmath>

namespace parcore::obs {

std::uint64_t Histogram::quantile_upper(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    acc += counts[b];
    if (acc >= target) return bucket_upper(b);
  }
  return bucket_upper(kBuckets - 1);
}

}  // namespace parcore::obs
