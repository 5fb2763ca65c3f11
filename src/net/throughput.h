// Per-connection QoS measurement (paper §2.2, "Measurement of QoS
// metrics"): TCP throughput of a connection, bytes/messages lost to
// failures, and traffic inactivity, which doubles as the probe-free
// failure detector ("long consecutive periods of traffic inactivity,
// detected by throughput measurements").
//
// The meter keeps a ring of fixed-width time bins; rate() sums the bins
// inside the sliding window. A link writes it and its engine reads it,
// both on the same reactor worker, so the meter takes no lock.
#pragma once

#include <vector>

#include "common/types.h"

namespace iov {

class ThroughputMeter {
 public:
  /// `window` is the averaging horizon; `bins` its subdivisions.
  explicit ThroughputMeter(Duration window = seconds(2.0), int bins = 20);

  /// Records `bytes` transferred (one message) at time `now`.
  void record(std::size_t bytes, TimePoint now);

  /// Records bytes lost due to a failure (never counted in rate()).
  void record_loss(std::size_t bytes);

  /// Adds everything `older` measured (totals, losses, the traffic still
  /// inside its window) to this meter: one connection to a peer took over
  /// from another. Both must have the same window and bin count.
  void absorb(const ThroughputMeter& older);

  /// Average throughput over the window ending at `now`, bytes/second.
  double rate(TimePoint now) const;

  /// Time since the last record(); Duration-max if nothing was recorded.
  Duration idle_for(TimePoint now) const;

  u64 total_bytes() const;
  u64 total_msgs() const;
  u64 lost_bytes() const;
  u64 lost_msgs() const;

 private:
  /// Advances the ring so `bin` (absolute) is the newest.
  void roll_to(i64 bin) const;

  const Duration bin_width_;
  const int bin_count_;

  mutable std::vector<u64> bins_;
  mutable i64 head_bin_ = 0;  // absolute index of the newest bin
  u64 total_bytes_ = 0;
  u64 total_msgs_ = 0;
  u64 lost_bytes_ = 0;
  u64 lost_msgs_ = 0;
  TimePoint last_record_ = -1;
};

}  // namespace iov
