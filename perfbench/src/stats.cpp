#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

void Hist::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

std::vector<u64> Hist::counts() const {
  std::vector<u64> out(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int Hist::index(i64 v) {
  if (v < 128) return v < 0 ? 0 : static_cast<int>(v);
  const u64 u = static_cast<u64>(v);
  const int msb = 63 - __builtin_clzll(u);
  const int shift = msb - 6;
  return 128 + (msb - 7) * 64 + static_cast<int>((u >> shift) - 64);
}

double Hist::lower(int i) {
  return i < 128 ? i : static_cast<double>(64 + (i - 128) % 64) * width(i);
}

double Hist::width(int i) {
  return i < 128 ? 1.0 : std::ldexp(1.0, (i - 128) / 64 + 1);
}

u64 total(const std::vector<u64>& counts) {
  u64 n = 0;
  for (const u64 c : counts) n += c;
  return n;
}

double quantile(const std::vector<u64>& counts, double q) {
  const u64 n = total(counts);
  if (n == 0) return -1;
  const double rank = std::max(q * static_cast<double>(n), 0.5);
  double cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c > 0 && cum + c >= rank) {
      const int b = static_cast<int>(i);
      return Hist::lower(b) +
             Hist::width(b) * std::clamp((rank - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return -1;
}

double quantile(const iov::obs::HistogramData& h, double q) {
  u64 n = 0;
  for (const u64 c : h.counts) n += c;
  if (n == 0 || h.bounds.empty()) return -1;
  const double rank = q * static_cast<double>(n);
  double cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (c > 0 && cum + c >= rank) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      const double hi = i < h.bounds.size() ? h.bounds[i] : h.bounds.back();
      return lo + (hi - lo) * std::clamp((rank - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return h.bounds.back();
}

iov::obs::HistogramData minus(const iov::obs::HistogramData& after,
                              const iov::obs::HistogramData& before) {
  iov::obs::HistogramData d = after;
  if (before.counts.size() != after.counts.size()) return d;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] -= std::min(d.counts[i], before.counts[i]);
  }
  d.count -= std::min(d.count, before.count);
  d.sum -= before.sum;
  return d;
}

void merge(iov::obs::HistogramData& into, const iov::obs::HistogramData& h) {
  if (into.counts.empty()) {
    into = h;
    return;
  }
  if (into.counts.size() != h.counts.size()) return;
  for (std::size_t i = 0; i < h.counts.size(); ++i) into.counts[i] += h.counts[i];
  into.count += h.count;
  into.sum += h.sum;
}

double median(std::vector<double> v) {
  if (v.empty()) return -1;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace perfbench
