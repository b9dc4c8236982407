#include "support/histogram.h"

#include <algorithm>
#include <sstream>

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

std::string SizeHistogram::bucket_report() const {
  std::ostringstream os;
  std::size_t lo = 0, hi = 0;  // inclusive bucket bounds
  while (lo < counts_.size()) {
    std::uint64_t acc = 0;
    for (std::size_t i = lo; i <= hi && i < counts_.size(); ++i)
      acc += counts_[i];
    if (acc > 0) {
      if (lo == hi)
        os << "  " << lo;
      else
        os << "  " << lo << "-" << hi;
      os << ": " << acc << "\n";
    }
    lo = hi + 1;
    hi = lo == 1 ? 1 : lo * 2 - 1;
    if (hi < lo) break;  // overflow guard
  }
  if (overflow_ > 0)
    os << "  >" << counts_.size() - 1 << ": " << overflow_ << "\n";
  return os.str();
}

}  // namespace parcore
