#include "trace.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <new>

namespace perfbench {

namespace {
void bump(std::atomic<u64>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}
}  // namespace

SpanTable::SpanTable(u64 stride, std::size_t slots)
    : stride_(stride == 0 ? 1 : stride),
      slots_(slots),
      spans_(static_cast<Span*>(std::calloc(slots == 0 ? 1 : slots,
                                            sizeof(Span)))) {
  if (!spans_) throw std::bad_alloc();
}

bool SpanTable::get(u64 seq, TimePoint* begin, TimePoint* end) const {
  if (seq % stride_ != 0 || seq / stride_ >= slots_) return false;
  const Span& s = spans_[seq / stride_];
  if (s.begin == 0) return false;
  *begin = s.begin;
  *end = s.end;
  return true;
}

void TimedRelay::on_start() {
  tid_.store(static_cast<int>(::syscall(SYS_gettid)),
             std::memory_order_release);
  RelayAlgorithm::on_start();
}

iov::Disposition TimedRelay::process(const MsgPtr& m) {
  bump(calls_);
  if (m->type() != iov::MsgType::kData) return RelayAlgorithm::process(m);
  bump(data_calls_);
  if (spans_ == nullptr) return RelayAlgorithm::process(m);
  const TimePoint begin = clock_now();
  const iov::Disposition d = RelayAlgorithm::process(m);
  spans_->put(m->seq(), begin, clock_now());
  return d;
}

}  // namespace perfbench
