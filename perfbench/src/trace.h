// Tracing from outside the engine: per-message spans kept in
// preallocated tables, the RelayAlgorithm subclass that records them
// around Algorithm::process and notes its engine thread's tid, and the
// process-wide allocation counter (alloc_count.cpp).
#pragma once

#include <atomic>
#include <cstdlib>
#include <memory>

#include "algorithm/relay.h"
#include "common/clock.h"

namespace perfbench {

using iov::MsgPtr;
using iov::TimePoint;
using iov::u64;

inline TimePoint clock_now() { return iov::RealClock::instance().now(); }

/// Begin/end times of one span per sequence number. Keeps every
/// `stride`-th sequence number below stride * slots; the table is
/// allocated zeroed, so the kernel only backs the pages a run touches.
class SpanTable {
 public:
  SpanTable(u64 stride, std::size_t slots);

  void put(u64 seq, TimePoint begin, TimePoint end) {
    if (seq % stride_ != 0 || seq / stride_ >= slots_) return;
    spans_[seq / stride_] = {begin, end};
  }
  /// False when `seq` was not recorded.
  bool get(u64 seq, TimePoint* begin, TimePoint* end) const;

 private:
  struct Span {
    TimePoint begin;
    TimePoint end;
  };
  struct Free {
    void operator()(Span* p) const { std::free(p); }
  };
  u64 stride_;
  std::size_t slots_;
  std::unique_ptr<Span[], Free> spans_;
};

/// RelayAlgorithm with its process() timed: counts every call, and when
/// given a SpanTable records a span per data message.
class TimedRelay final : public iov::RelayAlgorithm {
 public:
  explicit TimedRelay(SpanTable* spans) : spans_(spans) {}

  void on_start() override;
  iov::Disposition process(const MsgPtr& m) override;

  /// The engine thread's tid, 0 until on_start() ran.
  int tid() const { return tid_.load(std::memory_order_acquire); }
  u64 calls() const { return calls_.load(std::memory_order_relaxed); }
  u64 data_calls() const { return data_calls_.load(std::memory_order_relaxed); }

 private:
  SpanTable* const spans_;
  std::atomic<int> tid_{0};
  // Written by the engine thread only; read by the benchmark's thread.
  std::atomic<u64> calls_{0};
  std::atomic<u64> data_calls_{0};
};

/// Counts global operator new calls of every thread while on.
void count_allocs(bool on);
u64 allocs_counted();

}  // namespace perfbench
