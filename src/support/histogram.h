// Exact small-value histogram used to reproduce Fig. 1 (distribution of
// |V+| / |V*| sizes per edge operation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace parcore {

class SizeHistogram {
 public:
  explicit SizeHistogram(std::size_t max_exact = 4096)
      : counts_(max_exact + 1, 0) {}

  void record(std::size_t value) {
    if (value < counts_.size())
      ++counts_[value];
    else
      ++overflow_;
    total_ += 1;
    sum_ += value;
    if (value > max_seen_) max_seen_ = value;
  }

  void merge(const SizeHistogram& other);

  std::uint64_t total() const { return total_; }
  std::uint64_t count_at(std::size_t value) const {
    return value < counts_.size() ? counts_[value] : 0;
  }
  std::uint64_t overflow() const { return overflow_; }
  std::size_t max_seen() const { return max_seen_; }
  double mean() const {
    return total_ == 0 ? 0.0 : static_cast<double>(sum_) / total_;
  }

  /// Fraction of samples with value <= bound (paper: ">97% in [0,10]").
  double fraction_at_most(std::size_t bound) const;

  /// Multi-line report with exponential buckets: 0, 1, 2, 3-4, 5-8, ...
  std::string bucket_report() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::size_t max_seen_ = 0;
};

}  // namespace parcore
