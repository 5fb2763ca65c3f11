// Bounded circular queue — the buffer between a node's switch and one of
// its peer links (paper §2.2's receiver/sender buffers).
//
// The paper's design deliberately has exactly one reader and one writer
// per buffer. Here both ends run on the same reactor worker (an engine
// and all its links are citizens of one worker, DESIGN.md §9), so the
// queue is single-threaded: no lock, no condition variable. Nobody ever
// sleeps on a buffer; a full or empty buffer parks the event-driven
// caller instead (back-pressure toward the upstream TCP connection comes
// from a link that stops reading while its receive buffer is full).
#pragma once

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

  /// Returns false if the queue is full.
  bool try_push(T value) {
    if (size_ == ring_.size()) return false;
    emplace(std::move(value));
    return true;
  }

  /// Moves as many leading elements of `items` as fit and returns how
  /// many were accepted — 0 when full. Consumed elements are left
  /// moved-from in `items`.
  std::size_t try_push_batch(std::vector<T>& items) {
    std::size_t pushed = 0;
    while (pushed < items.size() && size_ < ring_.size()) {
      emplace(std::move(items[pushed]));
      ++pushed;
    }
    return pushed;
  }

  /// nullopt when empty.
  std::optional<T> try_pop() {
    if (size_ == 0) return std::nullopt;
    return take();
  }

  /// Appends up to `max` elements to `out`; returns the number popped (0
  /// when empty).
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    while (popped < max && size_ > 0) {
      out.push_back(take());
      ++popped;
    }
    return popped;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == ring_.size(); }

 private:
  void emplace(T&& value) {
    ring_[tail_] = std::move(value);
    tail_ = (tail_ + 1) % ring_.size();
    ++size_;
  }

  T take() {
    T out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    return out;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace iov
