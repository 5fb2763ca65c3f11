// Percentiles for the benchmark: a log-linear histogram that takes
// nanosecond values from any thread in O(1), and quantiles over the
// fixed-bucket histograms the engine's metric registry exports.
#pragma once

#include <array>
#include <atomic>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace perfbench {

using iov::i64;
using iov::u64;

/// Non-negative integers in buckets of at most 1/64 relative width:
/// values below 128 are exact, larger ones keep six significant bits.
/// add() is one relaxed atomic increment, so the sinks of many engine
/// threads can share one histogram.
class Hist {
 public:
  static constexpr int kBuckets = 128 + 57 * 64;

  void add(i64 v) {
    counts_[index(v)].fetch_add(1, std::memory_order_relaxed);
  }
  /// Only while no thread is adding.
  void reset();
  std::vector<u64> counts() const;

  static int index(i64 v);
  /// Bucket `i` holds [lower(i), lower(i) + width(i)).
  static double lower(int i);
  static double width(int i);

 private:
  std::array<std::atomic<u64>, kBuckets> counts_{};
};

u64 total(const std::vector<u64>& counts);

/// Quantile of Hist::counts(), interpolated linearly inside its bucket;
/// -1 when empty.
double quantile(const std::vector<u64>& counts, double q);

/// Quantile of a registry histogram, interpolated linearly inside its
/// bucket; -1 when empty.
double quantile(const iov::obs::HistogramData& h, double q);

/// `after` minus `before`, bucket by bucket; `before` may be empty.
iov::obs::HistogramData minus(const iov::obs::HistogramData& after,
                              const iov::obs::HistogramData& before);

/// Adds `h` into `into` (same bounds); `into` may be empty.
void merge(iov::obs::HistogramData& into, const iov::obs::HistogramData& h);

/// Median of `v`; -1 when empty.
double median(std::vector<double> v);

}  // namespace perfbench
