#include "support/histogram.h"

#include <algorithm>

namespace parcore {

void SizeHistogram::merge(const SizeHistogram& other) {
  if (other.counts_.size() > counts_.size())
    counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  overflow_ += other.overflow_;
  total_ += other.total_;
  sum_ += other.sum_;
  max_seen_ = std::max(max_seen_, other.max_seen_);
}

double SizeHistogram::fraction_at_most(std::size_t bound) const {
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i <= bound && i < counts_.size(); ++i)
    acc += counts_[i];
  return static_cast<double>(acc) / static_cast<double>(total_);
}

}  // namespace parcore
