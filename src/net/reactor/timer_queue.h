// TimerQueue — the timer heap of one reactor worker (DESIGN.md §9), with
// cancellation by owner in O(1) amortized time.
//
// cancel(owner) does not search the heap. It leaves a tombstone in the
// owner's record: the last sequence number scheduled so far, at or below
// which every entry of that owner is dead. Dead entries are dropped when
// they reach the top (next_due, pop_due), and when they outnumber the
// live ones a single sweep removes them all, so the heap never holds more
// than twice its live timers and each sweep is paid for by the cancels
// that made it necessary.
//
// Costs: push and pop_due O(log n) plus one hash lookup of the owner;
// cancel O(1) amortized. A periodic timer that fires and schedules its
// next tick allocates no owner record (the record of an owner whose last
// timer just fired lives until the next pop_due).
//
// A cancelled callable is destroyed when its entry is dropped or swept,
// not by cancel(): a timer callable must own no resource whose release
// the caller relies on. Every caller captures `this` or raw pointers.
//
// Not thread safe: the worker thread owns the queue.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace iov::reactor {

class TimerQueue {
 public:
  struct Timer {
    TimePoint due = 0;
    u64 seq = 0;  ///< schedule order; breaks ties between equal dues
    void* owner = nullptr;
    std::function<void()> fn;
    obs::Histogram* lag = nullptr;  ///< receives the due→run delay
  };

  /// Schedules `fn` at `due` under `owner`.
  void push(TimePoint due, void* owner, std::function<void()> fn,
            obs::Histogram* lag = nullptr);
  /// Kills every timer scheduled under `owner` so far; later pushes under
  /// the same owner (a new object at a freed address, say) stay live.
  void cancel(void* owner);

  /// Due time of the earliest live timer, or nullopt when none is left.
  std::optional<TimePoint> next_due();
  /// Moves the earliest live timer into `out` if it is due at `now`, in
  /// (due, seq) order; false when none is due.
  bool pop_due(TimePoint now, Timer& out);

  std::size_t live() const { return heap_.size() - dead_; }
  /// Cancelled entries still in the heap; never more than live().
  std::size_t dead() const { return dead_; }
  /// Owners with a record: at most live() + dead() + 1.
  std::size_t owners() const { return owners_.size(); }

 private:
  struct Owner {
    u64 cancelled_through = 0;  ///< tombstone: entries with seq <= it are dead
    std::size_t live = 0;
    std::size_t dead = 0;
  };

  bool is_dead(const Timer& t) const;
  Timer pop_top();
  void drop_dead_top();
  void sweep();
  void forget_idle();

  std::vector<Timer> heap_;  ///< min-heap on (due, seq)
  std::unordered_map<void*, Owner> owners_;
  u64 seq_ = 0;
  std::size_t dead_ = 0;
  void* idle_ = nullptr;  ///< owner whose last live timer was just popped
};

}  // namespace iov::reactor
