// Thread-safe bounded circular queue — the shared buffer between the
// engine thread and a peer link (paper §2.2's receiver/sender buffers).
//
// The paper's design deliberately has exactly one reader and one writer
// per buffer ("we adopt such a design to avoid the complex wait/signal
// scenario where the receiver or sender buffer is shared by more than one
// reader or writer threads"), but the queue itself is written to be safe
// for any number of each so tests can abuse it freely.
//
// Blocking semantics match the paper's receiver and sender threads (peer
// links use the non-blocking try_* forms and park on the reactor instead):
//   * a pusher into a full buffer sleeps until the consumer drains it
//     (back-pressure toward the upstream TCP connection);
//   * a popper from an empty buffer sleeps until a producer pushes.
// close() releases all sleepers; subsequent pushes fail and pops drain the
// remaining elements then fail, which is how graceful teardown proceeds.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace iov {

template <class T>
class BoundedQueue {
 public:
  /// Creates a queue holding at most `capacity` (> 0) elements.
  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity > 0 ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until space is available (or the queue is closed).
  /// Returns false iff the queue was closed.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return size_ < ring_.size() || closed_; });
    if (closed_) return false;
    emplace_locked(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false if the queue is full or closed.
  bool try_push(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ == ring_.size()) return false;
      emplace_locked(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking bulk push: moves as many leading elements of `items` as
  /// fit (one lock, one wake for the lot) and returns how many were
  /// accepted — 0 when full or closed. Consumed elements are left
  /// moved-from in `items`.
  std::size_t try_push_batch(std::vector<T>& items) {
    std::size_t pushed = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return 0;
      while (pushed < items.size() && size_ < ring_.size()) {
        emplace_locked(std::move(items[pushed]));
        ++pushed;
      }
    }
    notify_popped(not_empty_, pushed);
    return pushed;
  }

  /// Blocking bulk push: pushes every element of `items`, sleeping for
  /// space as needed (full-queue back-pressure applies to batch pushers
  /// exactly as to push()). Returns the number accepted, which is less
  /// than items.size() only if the queue was closed mid-batch.
  std::size_t push_batch(std::vector<T>& items) {
    std::size_t pushed = 0;
    while (pushed < items.size()) {
      std::size_t round = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_full_.wait(lock,
                       [&] { return size_ < ring_.size() || closed_; });
        if (closed_) break;
        while (pushed < items.size() && size_ < ring_.size()) {
          emplace_locked(std::move(items[pushed]));
          ++pushed;
          ++round;
        }
      }
      notify_popped(not_empty_, round);
    }
    return pushed;
  }

  /// Blocks until an element is available (or the queue is closed *and*
  /// drained). Returns nullopt only in the latter case.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return std::nullopt;
    T out = take_locked();
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (size_ == 0) return std::nullopt;
      out = take_locked();
    }
    not_full_.notify_one();
    return out;
  }

  /// Non-blocking bulk pop: appends up to `max` elements to `out` under a
  /// single lock acquisition and wakes blocked pushers once. Returns the
  /// number popped (0 when empty).
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      popped = drain_locked(out, max);
    }
    notify_popped(not_full_, popped);
    return popped;
  }

  /// Blocking bulk pop: sleeps until at least one element is available
  /// (or the queue is closed and drained, returning 0), then appends up
  /// to `max` elements to `out`. One lock + one wake per batch — the
  /// sender-thread counterpart of pop().
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
      popped = drain_locked(out, max);
    }
    notify_popped(not_full_, popped);
    return popped;
  }

  /// pop_batch with a deadline; returns 0 on timeout as well.
  std::size_t pop_batch_for(std::vector<T>& out, std::size_t max,
                            Duration timeout) {
    std::size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait_for(lock, std::chrono::nanoseconds(timeout),
                          [&] { return size_ > 0 || closed_; });
      popped = drain_locked(out, max);
    }
    notify_popped(not_full_, popped);
    return popped;
  }

  /// Pop with a deadline; returns nullopt on timeout or closed-and-drained.
  std::optional<T> pop_for(Duration timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ready = not_empty_.wait_for(
        lock, std::chrono::nanoseconds(timeout),
        [&] { return size_ > 0 || closed_; });
    if (!ready || size_ == 0) return std::nullopt;
    T out = take_locked();
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  /// Wakes all blocked threads; pushes fail afterwards, pops drain whatever
  /// remains and then fail.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  std::size_t capacity() const { return ring_.size(); }

  bool empty() const { return size() == 0; }

  bool full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_ == ring_.size();
  }

 private:
  std::size_t drain_locked(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    while (popped < max && size_ > 0) {
      out.push_back(take_locked());
      ++popped;
    }
    return popped;
  }

  /// One wake for a batch of 1, a broadcast for more (several sleepers
  /// may now make progress).
  static void notify_popped(std::condition_variable& cv, std::size_t n) {
    if (n == 1) {
      cv.notify_one();
    } else if (n > 1) {
      cv.notify_all();
    }
  }

  void emplace_locked(T&& value) {
    ring_[tail_] = std::move(value);
    tail_ = (tail_ + 1) % ring_.size();
    ++size_;
  }

  T take_locked() {
    T out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    return out;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace iov
