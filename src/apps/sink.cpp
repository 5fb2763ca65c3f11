#include "apps/sink.h"

#include "message/codec.h"

namespace iov::apps {

namespace {
u64 origin_key(const NodeId& id) {
  return (static_cast<u64>(id.ip()) << 16) | id.port();
}
}  // namespace

MsgPtr SinkApp::next_message(u32 app, const NodeId& self, TimePoint now) {
  (void)app;
  (void)self;
  (void)now;
  return nullptr;  // sinks never produce
}

void SinkApp::deliver(const MsgPtr& m, TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.msgs += 1;
  stats_.bytes += m->payload_size();
  if (stats_.first_delivery < 0) stats_.first_delivery = now;
  stats_.last_delivery = now;
  meter_.record(m->payload_size(), now);

  auto& seqs = seen_[origin_key(m->origin())];
  if (!seqs.insert(m->seq()).second) {
    stats_.duplicates += 1;
  } else {
    stats_.distinct += 1;
  }

  if (track_delay_ && m->payload_size() >= 8) {
    const auto sent =
        static_cast<TimePoint>(codec::read_u64(m->payload()->data()));
    if (sent >= 0 && sent <= now) {
      delay_.add(static_cast<double>(now - sent));
    }
  }

  if (expected_payload_ > 0) {
    if (m->payload_size() != expected_payload_ ||
        !Buffer::matches_pattern(m->payload()->data(), expected_payload_,
                                 m->seq())) {
      stats_.corrupt += 1;
    }
  }
}

SinkApp::Stats SinkApp::stats(TimePoint now) const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.rate_bps = meter_.rate(now);
  return out;
}

double SinkApp::mean_delay() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delay_.mean();
}

double SinkApp::max_delay() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delay_.max();
}

double SinkApp::mean_goodput() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.msgs < 2 || stats_.last_delivery <= stats_.first_delivery) {
    return 0.0;
  }
  return static_cast<double>(stats_.bytes) /
         to_seconds(stats_.last_delivery - stats_.first_delivery);
}

}  // namespace iov::apps
