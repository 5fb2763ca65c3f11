// Token-bucket rate limiter — the mechanism behind the paper's bandwidth
// emulation (§2.2): "we have wrapped the socket send and recv functions
// to include multiple timers in order to precisely control the bandwidth
// used per interval".
//
// A bucket accrues `rate` tokens (bytes) per second up to `burst` bytes.
// Callers consume tokens for each message and are told how long to sleep
// before the bytes may pass. Rates are runtime-adjustable: the observer
// can "produce or relieve artificial bottlenecks on the fly".
//
// Threading: owner-thread-only, no lock. A bucket lives in one node's
// BandwidthEmulator and is only touched from that node's thread (its
// reactor worker, or the simulator's single thread); the observer's
// kSetBandwidth reaches it as a control message applied on that worker.
#pragma once

#include "common/types.h"

namespace iov {

class TokenBucket {
 public:
  /// `rate_bytes_per_sec` of 0 means unlimited. `burst_bytes` of 0 derives
  /// a default burst of max(one typical message, rate/8).
  explicit TokenBucket(double rate_bytes_per_sec = 0.0, double burst_bytes = 0.0);

  /// Changes the rate; tokens already accrued are retained (clamped to the
  /// new burst).
  void set_rate(double rate_bytes_per_sec, double burst_bytes = 0.0);

  /// Current rate limit in bytes/s; 0 when unlimited.
  double rate() const { return rate_; }

  bool limited() const { return rate_ > 0.0; }

  /// Consumes `bytes` tokens at time `now` and returns how long the caller
  /// must wait before the bytes are allowed on the wire (0 when tokens were
  /// available). The debt model allows the balance to go negative so that
  /// a large message simply delays subsequent ones — this matches the
  /// paper's per-interval pacing and keeps sustained throughput exact.
  Duration acquire(std::size_t bytes, TimePoint now);

  /// Non-consuming peek: the wait a hypothetical acquire would return.
  Duration would_wait(std::size_t bytes, TimePoint now) const;

 private:
  /// The balance at `now`: tokens_ plus what accrued since last_, capped
  /// at the burst.
  double balance_at(TimePoint now) const;

  double rate_ = 0.0;    // bytes per second; 0 = unlimited
  double burst_ = 0.0;   // max accumulated tokens, bytes
  double tokens_ = 0.0;  // may be negative (debt)
  TimePoint last_ = 0;
};

}  // namespace iov
