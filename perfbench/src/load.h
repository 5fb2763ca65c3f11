// The benchmark's own applications (its `apps` layer): a source that
// costs O(1) per message and a checking sink with O(1) state. They share
// each sequence number's due time out of band, never in the payload.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "algorithm/application.h"
#include "message/buffer.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using iov::NodeId;
using iov::u32;
using iov::u8;

/// A fixed set of pre-built patterned payloads; message `seq` carries
/// payload `seq % kCount`. Built once per run from the seed, so the
/// source never writes a payload byte.
class PatternSet {
 public:
  static constexpr std::size_t kCount = 64;

  PatternSet(std::size_t payload_bytes, u64 seed);

  const iov::BufferPtr& payload(u64 seq) const {
    return payloads_[seq % kCount];
  }

  /// True if `data` is message `seq`'s payload. Payloads up to 4 KB, and
  /// every 16th larger one, are compared in full; other large ones on
  /// three 64-byte windows (head, a seq-dependent middle, tail), which
  /// keeps the sink's check far below the per-hop cost at 64 KB.
  bool matches(u64 seq, const u8* data, std::size_t n) const;

 private:
  std::vector<iov::BufferPtr> payloads_;
};

/// Each sequence number's due time, written by the source and read by
/// the sinks. A ring: a slot is reused only once more than kSlots
/// messages are in flight, which the engines' bounded buffers rule out,
/// and a reader that finds its slot reused gets nothing rather than a
/// wrong time.
class DueBook {
 public:
  DueBook();
  void put(u64 seq, TimePoint due);
  bool get(u64 seq, TimePoint* due) const;

 private:
  static constexpr u64 kSlots = u64{1} << 18;
  struct Slot {
    std::atomic<u64> seq{~u64{0}};
    std::atomic<TimePoint> due{0};
  };
  std::unique_ptr<Slot[]> slots_;
};

/// What the source and every sink of a run share.
struct Shared {
  /// Set during a measured window: latency and lag are recorded.
  std::atomic<bool> recording{false};
  DueBook book;
  Hist latency;  ///< due time -> delivery, over every sink
  Hist lag;      ///< due time -> emission, traced rounds only
};

/// The source. Back-to-back (rate 0): a message is always ready, and
/// message k is due when k-1 was emitted, so its lag is how long the
/// switch took to come back for it. Constant rate: message k is due at
/// deploy + k / rate (open loop); an engine that polls late emits the
/// backlog at once and the lateness shows as lag and latency. After
/// stop(), trickle() emits a few more messages, one per switch visit, to
/// push out a tail the engine stranded (README.md, "The drain").
class PatternSource final : public iov::Application {
 public:
  PatternSource(std::shared_ptr<const PatternSet> patterns, Shared& shared,
                double rate);

  MsgPtr next_message(u32 app, const NodeId& self, TimePoint now) override;
  void deliver(const MsgPtr& m, TimePoint now) override;

  /// Records a next_message span per emitted message and its lag; call
  /// before the engine starts.
  void trace_into(SpanTable* spans) { spans_ = spans; }

  /// Asks the source to stop. Once stopped() is true the engine thread
  /// has seen the request and emitted() is final.
  void stop() { mode_.store(kStop, std::memory_order_release); }
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }
  /// After stopped(): emits exactly `n` more messages, then stops again.
  void trickle(u64 n);
  u64 emitted() const { return emitted_.load(std::memory_order_acquire); }

 private:
  const std::shared_ptr<const PatternSet> patterns_;
  Shared& shared_;
  const TimePoint period_;  ///< 0 = back-to-back
  // Engine thread only.
  TimePoint start_ = -1;
  TimePoint last_emit_ = 0;
  u64 next_ = 0;
  SpanTable* spans_ = nullptr;

  enum Mode : int { kRun, kTrickle, kStop };
  std::atomic<int> mode_{kRun};
  std::atomic<u64> trickle_left_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<u64> emitted_{0};
};

/// Self-test hooks: the sink at the end of the path corrupts or drops
/// the delivery of kInjectSeq before checking it.
enum class Inject { kNone, kCorrupt, kDrop };
constexpr u64 kInjectSeq = 20;

/// The checking sink. Its state is O(1): the next sequence number it
/// expects from the single source. Every delivery is checked for order,
/// duplicates, length and payload bytes.
class CheckingSink final : public iov::Application {
 public:
  CheckingSink(std::shared_ptr<const PatternSet> patterns, Shared& shared,
               Inject inject);

  MsgPtr next_message(u32 app, const NodeId& self, TimePoint now) override;
  void deliver(const MsgPtr& m, TimePoint now) override;

  /// Records a deliver span per message; call before the engine starts.
  void trace_into(SpanTable* spans) { spans_ = spans; }

  /// In-order deliveries with intact payloads.
  u64 good() const { return good_.load(std::memory_order_relaxed); }
  u64 next_expected() const { return next_pub_.load(std::memory_order_acquire); }
  /// -1 until the first delivery.
  TimePoint first_delivery() const {
    return first_.load(std::memory_order_acquire);
  }
  /// Expected deliveries that were missing, corrupt, duplicated or out
  /// of order, given that `sent` messages were emitted.
  struct Failures {
    u64 missing = 0;
    u64 corrupt = 0;
    u64 late = 0;  ///< duplicated or out of order
    u64 total() const { return missing + corrupt + late; }
  };
  Failures failures(u64 sent) const;

 private:
  const std::shared_ptr<const PatternSet> patterns_;
  Shared& shared_;
  const Inject inject_;
  SpanTable* spans_ = nullptr;
  u64 next_ = 0;  ///< engine thread only; published in next_pub_

  std::atomic<u64> next_pub_{0};
  std::atomic<u64> good_{0};
  std::atomic<u64> corrupt_{0};
  std::atomic<u64> late_{0};  ///< seq below the expected one: dup or reordered
  std::atomic<TimePoint> first_{-1};
};

}  // namespace perfbench
