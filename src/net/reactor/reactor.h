// Shared epoll reactor — a small fixed pool of event-loop workers that
// runs every engine and every PeerLink in the process (DESIGN.md §9).
//
// The paper's engine spends one thread per node plus two per persistent
// connection (receiver + sender), so hosting N virtual nodes costs
// O(N·peers) threads — fine at the paper's 2–12 nodes, a wall at
// production scale. Here every node is a citizen of one worker: its
// listener, its links, its timers and its switch all run as callbacks
// of that worker's loop, so total OS threads are the pool size,
// independent of the node and link counts.
//
// Threading model:
//   * Each Worker owns one epoll instance, one wake eventfd, a FIFO task
//     queue, a timer heap and a deferred-call list, all serviced by a
//     single thread.
//   * Timers cost O(log n) to schedule and fire and O(1) amortized to
//     cancel by owner (TimerQueue), so per-link set-up and teardown do
//     not grow with the number of timers on the worker. A cancelled
//     callable is destroyed late, when its dead entry is dropped: timer
//     callables capture `this` or raw pointers, never own a resource.
//   * A handler (fd registration, timers, state) belongs to exactly ONE
//     worker; every callback for it runs on that worker's thread, so
//     handler state needs no locking.
//   * Other threads talk to a worker only through submit() (and call(),
//     built on it), the one thread-safe entry point (mutex-guarded queue
//     + eventfd wake). Tasks run FIFO.
//   * Within one loop iteration the order is: dispatch epoll events,
//     run submitted tasks, fire due timers, then run deferred calls.
//     defer() is the worker-local way to say "after this batch": it takes
//     no mutex and writes no eventfd, and a call deferred from a deferred
//     call runs in the same pass (up to four rounds, so epoll is never
//     starved).
//     Handlers are looked up in the registration map per event, so a
//     handler deregistered by an earlier callback in the same batch is
//     skipped, never dangled.
//
// Scheduling lag (time between a timer's due point and the moment it
// runs) is observed into the per-handler histogram supplied at schedule
// time; the engine registers iov_reactor_loop_lag_seconds there, so a
// node's report shows the lag *its* timers experienced even though the
// pool is process-shared.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/reactor/timer_queue.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace iov::reactor {

/// Receives readiness callbacks for one registered fd. All calls arrive
/// on the owning worker's thread.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  /// `events` is the epoll event mask (EPOLLIN/EPOLLOUT/EPOLLERR/...).
  virtual void on_event(u32 events) = 0;
};

class Worker {
 public:
  Worker();
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Starts the loop thread; `cpu` >= 0 pins it to that CPU.
  void start(int cpu = -1);
  /// Asks the loop to exit and joins the thread. Idempotent.
  void stop_and_join();

  /// Runs `fn` on the worker thread, FIFO with other tasks. Thread safe;
  /// the only cross-thread entry point.
  void submit(std::function<void()> fn);

  /// Runs `fn` on the worker thread and waits for it to finish; runs it
  /// inline when called on the worker thread itself. Thread safe.
  void call(const std::function<void()>& fn);

  // --- Worker-thread-only API (call from handler callbacks or tasks) -------

  /// Registers `fd` with the given epoll interest mask.
  bool add_fd(int fd, u32 events, EventHandler* handler);
  /// Changes the interest mask of a registered fd.
  bool mod_fd(int fd, u32 events);
  /// Removes a registered fd; no callbacks for it run afterwards.
  void del_fd(int fd);

  /// Runs `fn` on this worker after `delay`. `owner` keys cancellation;
  /// `lag`, when non-null, receives the due→run delay. O(log timers).
  /// `fn` must own no resource: it captures `this` or raw pointers, since
  /// a cancelled `fn` is destroyed late (see cancel_timers).
  void schedule_after(Duration delay, void* owner, std::function<void()> fn,
                      obs::Histogram* lag = nullptr);
  /// Drops every pending timer scheduled under `owner`: none of them runs,
  /// while timers scheduled under `owner` afterwards do. O(1) amortized
  /// (TimerQueue): the entries stay in the heap as dead ones, and their
  /// callables are destroyed when they reach the top or a sweep removes
  /// them, not here.
  void cancel_timers(void* owner);

  /// Runs `fn` on this worker at the end of the current loop iteration,
  /// after its epoll events, tasks and due timers; FIFO with other
  /// deferred calls. No lock, no wake: the loop does not sleep while a
  /// deferred call is pending. `owner` keys cancel_deferred().
  void defer(void* owner, std::function<void()> fn);
  /// Drops every deferred call made under `owner` that has not run yet.
  void cancel_deferred(void* owner);

  /// Destroys `handler` once the callback chain that may still be running
  /// one of its methods has returned: as a deferred call under `owner`,
  /// so cancel_deferred(owner) destroys it at once.
  void retire(void* owner, std::unique_ptr<EventHandler> handler);

  /// True when the calling thread is this worker's loop thread.
  bool on_worker_thread() const;

 private:
  struct Deferred {
    void* owner = nullptr;
    std::function<void()> fn;
  };

  void loop();
  void wake();
  Duration next_timeout();
  void run_tasks();
  void fire_timers();
  void run_deferred();

  Fd epoll_fd_;
  Fd wake_fd_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  std::mutex task_mu_;
  std::vector<std::function<void()>> tasks_;    // guarded by task_mu_
  std::vector<std::function<void()>> running_;  // worker-thread scratch

  // Worker-thread-only state.
  std::unordered_map<int, EventHandler*> handlers_;
  TimerQueue timers_;
  std::vector<Deferred> deferred_;   ///< waiting for the next deferred pass
  std::vector<Deferred> deferring_;  ///< the round being run
  std::size_t deferring_idx_ = 0;    ///< next entry of deferring_ to run
};

/// The fixed worker pool. One process-shared instance drives every
/// engine (Reactor::shared()); tests may instantiate their own.
class Reactor {
 public:
  /// Starts `threads` workers (clamped to ≥ 1). When they fit on the
  /// process's allowed CPUs (sched_getaffinity), worker k is pinned to
  /// the k-th allowed CPU, so the scheduler cannot pack a lightly loaded
  /// pool onto one core; otherwise they run unpinned.
  explicit Reactor(int threads);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Round-robin worker assignment; an engine (and with it every one of
  /// its links) keeps its worker for life.
  Worker& pick();

  int threads() const { return static_cast<int>(workers_.size()); }

  /// The process-wide shared pool of min(4, hardware_concurrency) workers
  /// (at least 1), created on first use.
  static Reactor& shared();

 private:
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<u64> next_{0};
};

}  // namespace iov::reactor
