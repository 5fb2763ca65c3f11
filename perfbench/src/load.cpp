#include "load.h"

#include <cstring>

namespace perfbench {

namespace {

constexpr std::size_t kFullCheckBytes = 4096;
constexpr std::size_t kWindow = 64;

void bump(std::atomic<u64>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

PatternSet::PatternSet(std::size_t payload_bytes, u64 seed) {
  payloads_.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    payloads_.push_back(iov::Buffer::pattern(
        payload_bytes, static_cast<u32>(seed * kCount + i)));
  }
}

bool PatternSet::matches(u64 seq, const u8* data, std::size_t n) const {
  const iov::Buffer& want = *payload(seq);
  if (n != want.size()) return false;
  if (n <= kFullCheckBytes || seq % 16 == 0) {
    return std::memcmp(data, want.data(), n) == 0;
  }
  const std::size_t mid = (seq * 4099) % (n - kWindow);
  return std::memcmp(data, want.data(), kWindow) == 0 &&
         std::memcmp(data + mid, want.data() + mid, kWindow) == 0 &&
         std::memcmp(data + n - kWindow, want.data() + n - kWindow,
                     kWindow) == 0;
}

DueBook::DueBook() : slots_(std::make_unique<Slot[]>(kSlots)) {}

void DueBook::put(u64 seq, TimePoint due) {
  Slot& s = slots_[seq % kSlots];
  s.seq.store(~u64{0}, std::memory_order_relaxed);
  s.due.store(due, std::memory_order_release);
  s.seq.store(seq, std::memory_order_release);
}

bool DueBook::get(u64 seq, TimePoint* due) const {
  const Slot& s = slots_[seq % kSlots];
  if (s.seq.load(std::memory_order_acquire) != seq) return false;
  *due = s.due.load(std::memory_order_acquire);
  return s.seq.load(std::memory_order_acquire) == seq;
}

PatternSource::PatternSource(std::shared_ptr<const PatternSet> patterns,
                             Shared& shared, double rate)
    : patterns_(std::move(patterns)),
      shared_(shared),
      period_(rate > 0 ? iov::seconds(1.0 / rate) : 0) {}

MsgPtr PatternSource::next_message(u32 app, const NodeId& self,
                                   TimePoint now) {
  const int mode = mode_.load(std::memory_order_acquire);
  const u64 left = trickle_left_.load(std::memory_order_relaxed);
  if (mode == kStop || (mode == kTrickle && left == 0)) {
    stopped_.store(true, std::memory_order_release);
    return nullptr;
  }
  const TimePoint begin = spans_ != nullptr ? clock_now() : 0;
  TimePoint due = now;
  if (mode == kTrickle) {
    trickle_left_.store(left - 1, std::memory_order_relaxed);
  } else if (period_ > 0) {
    if (start_ < 0) start_ = now;
    due = start_ + static_cast<TimePoint>(next_) * period_;
    if (now < due) return nullptr;
  } else if (next_ > 0) {
    due = last_emit_;
  }
  last_emit_ = now;
  const u64 seq = next_++;
  shared_.book.put(seq, due);
  // The engine overwrites the header seq with its own per-slot counter,
  // which counts the same messages from 0 (Engine::pump_source_slot).
  MsgPtr m = iov::Msg::data(self, app, static_cast<u32>(seq),
                            patterns_->payload(seq));
  emitted_.store(next_, std::memory_order_release);
  if (spans_ != nullptr) {
    if (shared_.recording.load(std::memory_order_relaxed)) {
      shared_.lag.add(now - due);
    }
    spans_->put(seq, begin, clock_now());
  }
  return m;
}

void PatternSource::trickle(u64 n) {
  trickle_left_.store(n, std::memory_order_relaxed);
  mode_.store(kTrickle, std::memory_order_release);
}

void PatternSource::deliver(const MsgPtr& m, TimePoint now) {
  (void)m;
  (void)now;
}

CheckingSink::CheckingSink(std::shared_ptr<const PatternSet> patterns,
                           Shared& shared, Inject inject)
    : patterns_(std::move(patterns)), shared_(shared), inject_(inject) {}

MsgPtr CheckingSink::next_message(u32 app, const NodeId& self,
                                  TimePoint now) {
  (void)app;
  (void)self;
  (void)now;
  return nullptr;
}

void CheckingSink::deliver(const MsgPtr& m, TimePoint now) {
  const TimePoint begin = spans_ != nullptr ? clock_now() : 0;
  const u64 seq = m->seq();
  if (inject_ == Inject::kDrop && seq == kInjectSeq) return;
  if (first_.load(std::memory_order_relaxed) < 0) {
    first_.store(now, std::memory_order_release);
  }
  if (seq < next_) {
    bump(late_);
  } else {
    const iov::Buffer& p = *m->payload();
    bool ok = false;
    if (inject_ == Inject::kCorrupt && seq == kInjectSeq) {
      std::vector<u8> copy(p.data(), p.data() + p.size());
      if (!copy.empty()) copy[0] ^= 0x5a;
      ok = patterns_->matches(seq, copy.data(), copy.size());
    } else {
      ok = patterns_->matches(seq, p.data(), p.size());
    }
    bump(ok ? good_ : corrupt_);
    next_ = seq + 1;
    next_pub_.store(next_, std::memory_order_release);
  }
  if (shared_.recording.load(std::memory_order_relaxed)) {
    TimePoint due = 0;
    if (shared_.book.get(seq, &due)) shared_.latency.add(now - due);
  }
  if (spans_ != nullptr) spans_->put(seq, begin, clock_now());
}

CheckingSink::Failures CheckingSink::failures(u64 sent) const {
  Failures f;
  f.corrupt = corrupt_.load(std::memory_order_relaxed);
  const u64 accepted = good_.load(std::memory_order_relaxed) + f.corrupt;
  f.missing = sent > accepted ? sent - accepted : 0;
  f.late = late_.load(std::memory_order_relaxed);
  return f;
}

}  // namespace perfbench
