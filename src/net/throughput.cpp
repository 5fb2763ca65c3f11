#include "net/throughput.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace iov {

ThroughputMeter::ThroughputMeter(Duration window, int bins)
    : bin_width_(std::max<Duration>(window / std::max(bins, 1), 1)),
      bin_count_(std::max(bins, 1)),
      bins_(static_cast<std::size_t>(bin_count_), 0) {}

void ThroughputMeter::roll_to(i64 bin) const {
  if (bin <= head_bin_) return;
  const i64 advance = std::min<i64>(bin - head_bin_, bin_count_);
  for (i64 i = 0; i < advance; ++i) {
    head_bin_++;
    bins_[static_cast<std::size_t>(head_bin_ % bin_count_)] = 0;
  }
  head_bin_ = bin;
}

void ThroughputMeter::record(std::size_t bytes, TimePoint now) {
  roll_to(now / bin_width_);
  bins_[static_cast<std::size_t>(head_bin_ % bin_count_)] += bytes;
  total_bytes_ += bytes;
  total_msgs_ += 1;
  last_record_ = std::max(last_record_, now);
}

void ThroughputMeter::record_loss(std::size_t bytes) {
  lost_bytes_ += bytes;
  lost_msgs_ += 1;
}

void ThroughputMeter::absorb(const ThroughputMeter& older) {
  total_bytes_ += older.total_bytes_;
  total_msgs_ += older.total_msgs_;
  lost_bytes_ += older.lost_bytes_;
  lost_msgs_ += older.lost_msgs_;
  last_record_ = std::max(last_record_, older.last_record_);
  // `older` covers absolute bins (older.head - count, older.head]; add the
  // ones still inside this meter's window once both share a head.
  roll_to(older.head_bin_);
  for (i64 b = std::max<i64>(0, head_bin_ - bin_count_ + 1);
       b <= older.head_bin_; ++b) {
    const auto slot = static_cast<std::size_t>(b % bin_count_);
    bins_[slot] += older.bins_[slot];
  }
}

double ThroughputMeter::rate(TimePoint now) const {
  roll_to(now / bin_width_);
  const u64 sum = std::accumulate(bins_.begin(), bins_.end(), u64{0});
  const double window_s = to_seconds(bin_width_ * bin_count_);
  return window_s > 0.0 ? static_cast<double>(sum) / window_s : 0.0;
}

Duration ThroughputMeter::idle_for(TimePoint now) const {
  if (last_record_ < 0) return std::numeric_limits<Duration>::max();
  return std::max<Duration>(0, now - last_record_);
}

u64 ThroughputMeter::total_bytes() const { return total_bytes_; }

u64 ThroughputMeter::total_msgs() const { return total_msgs_; }

u64 ThroughputMeter::lost_bytes() const { return lost_bytes_; }

u64 ThroughputMeter::lost_msgs() const { return lost_msgs_; }

}  // namespace iov
