// Per-connection QoS measurement (paper §2.2, "Measurement of QoS
// metrics"): TCP throughput of a connection, bytes/messages lost to
// failures, and traffic inactivity, which doubles as the probe-free
// failure detector ("long consecutive periods of traffic inactivity,
// detected by throughput measurements").
//
// The meter keeps a ring of fixed-width time bins; rate() sums the bins
// inside the sliding window. Writers are the links (on reactor workers)
// and the reader is the engine thread, so all operations take the internal
// mutex (measurement happens per message, not per byte, so contention is
// negligible at emulated rates).
#pragma once

#include <mutex>
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

  /// Average throughput over the window ending at `now`, bytes/second.
  double rate(TimePoint now) const;

  /// Time since the last record(); Duration-max if nothing was recorded.
  Duration idle_for(TimePoint now) const;

  u64 total_bytes() const;
  u64 total_msgs() const;
  u64 lost_bytes() const;
  u64 lost_msgs() const;

 private:
  void roll_locked(TimePoint now) const;

  const Duration bin_width_;
  const int bin_count_;

  mutable std::mutex mu_;
  mutable std::vector<u64> bins_;
  mutable i64 head_bin_ = 0;  // absolute index of the newest bin
  u64 total_bytes_ = 0;
  u64 total_msgs_ = 0;
  u64 lost_bytes_ = 0;
  u64 lost_msgs_ = 0;
  TimePoint last_record_ = -1;
};

}  // namespace iov
