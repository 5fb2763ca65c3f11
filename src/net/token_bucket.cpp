#include "net/token_bucket.h"

#include <algorithm>

namespace iov {

namespace {
double default_burst(double rate) {
  // One eighth of a second of traffic, at least one 8 KB message.
  return std::max(8192.0, rate / 8.0);
}
}  // namespace

TokenBucket::TokenBucket(double rate_bytes_per_sec, double burst_bytes) {
  set_rate(rate_bytes_per_sec, burst_bytes);
}

void TokenBucket::set_rate(double rate_bytes_per_sec, double burst_bytes) {
  const bool was_unlimited = rate_ == 0.0;
  rate_ = rate_bytes_per_sec > 0.0 ? rate_bytes_per_sec : 0.0;
  burst_ = burst_bytes > 0.0 ? burst_bytes : default_burst(rate_);
  if (was_unlimited) {
    // Entering limited mode (including construction) starts with a full
    // bucket: traffic is paced from the first message onward with no
    // spurious initial delay. Limited-to-limited changes retain the
    // balance so runtime adjustments grant no free burst.
    tokens_ = burst_;
  }
  tokens_ = std::min(tokens_, burst_);
  if (rate_ == 0.0) tokens_ = 0.0;
}

double TokenBucket::balance_at(TimePoint now) const {
  if (now <= last_) return tokens_;
  return std::min(burst_, tokens_ + to_seconds(now - last_) * rate_);
}

Duration TokenBucket::acquire(std::size_t bytes, TimePoint now) {
  if (rate_ == 0.0) return 0;
  tokens_ = balance_at(now) - static_cast<double>(bytes);
  last_ = std::max(last_, now);
  if (tokens_ >= 0.0) return 0;
  return static_cast<Duration>(-tokens_ / rate_ *
                               static_cast<double>(kNanosPerSec));
}

Duration TokenBucket::would_wait(std::size_t bytes, TimePoint now) const {
  if (rate_ == 0.0) return 0;
  const double balance = balance_at(now) - static_cast<double>(bytes);
  if (balance >= 0.0) return 0;
  return static_cast<Duration>(-balance / rate_ *
                               static_cast<double>(kNanosPerSec));
}

}  // namespace iov
