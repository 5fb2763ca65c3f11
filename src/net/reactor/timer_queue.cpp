#include "net/reactor/timer_queue.h"

#include <algorithm>

namespace iov::reactor {
namespace {

// std::*_heap build a max-heap; ordering by "later" puts the earliest
// (due, seq) on top.
bool later(const TimerQueue::Timer& a, const TimerQueue::Timer& b) {
  return a.due != b.due ? a.due > b.due : a.seq > b.seq;
}

}  // namespace

void TimerQueue::push(TimePoint due, void* owner, std::function<void()> fn,
                      obs::Histogram* lag) {
  ++owners_[owner].live;
  heap_.push_back(Timer{due, ++seq_, owner, std::move(fn), lag});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void TimerQueue::cancel(void* owner) {
  const auto it = owners_.find(owner);
  if (it == owners_.end() || it->second.live == 0) return;
  Owner& o = it->second;
  o.cancelled_through = seq_;
  o.dead += o.live;
  dead_ += o.live;
  o.live = 0;
  if (dead_ > live()) sweep();
}

std::optional<TimePoint> TimerQueue::next_due() {
  drop_dead_top();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().due;
}

bool TimerQueue::pop_due(TimePoint now, Timer& out) {
  forget_idle();
  drop_dead_top();
  if (heap_.empty() || heap_.front().due > now) return false;
  out = pop_top();
  Owner& o = owners_.find(out.owner)->second;
  // The record outlives its last timer until the next pop: a callback
  // that schedules its owner's next tick finds it still there.
  if (--o.live == 0 && o.dead == 0) idle_ = out.owner;
  if (dead_ > live()) sweep();
  return true;
}

bool TimerQueue::is_dead(const Timer& t) const {
  return t.seq <= owners_.find(t.owner)->second.cancelled_through;
}

TimerQueue::Timer TimerQueue::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Timer t = std::move(heap_.back());
  heap_.pop_back();
  return t;
}

void TimerQueue::drop_dead_top() {
  while (dead_ > 0 && !heap_.empty() && is_dead(heap_.front())) {
    const auto it = owners_.find(pop_top().owner);
    --dead_;
    if (--it->second.dead == 0 && it->second.live == 0) owners_.erase(it);
  }
}

void TimerQueue::sweep() {
  std::erase_if(heap_, [this](const Timer& t) { return is_dead(t); });
  std::make_heap(heap_.begin(), heap_.end(), later);
  for (auto it = owners_.begin(); it != owners_.end();) {
    it->second.dead = 0;
    it = it->second.live == 0 ? owners_.erase(it) : std::next(it);
  }
  dead_ = 0;
}

void TimerQueue::forget_idle() {
  if (idle_ == nullptr) return;
  const auto it = owners_.find(idle_);
  idle_ = nullptr;
  if (it != owners_.end() && it->second.live == 0 && it->second.dead == 0) {
    owners_.erase(it);
  }
}

}  // namespace iov::reactor
