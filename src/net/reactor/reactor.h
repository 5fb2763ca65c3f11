// Shared epoll reactor — a small fixed pool of event-loop workers that
// drives every PeerLink socket in the process (DESIGN.md §9).
//
// The paper's engine spends two OS threads per persistent connection
// (receiver + sender), so hosting N virtual nodes costs O(N·peers)
// threads — fine at the paper's 2–12 nodes, a wall at production scale.
// The reactor replaces those thread bodies with per-link state machines
// multiplexed over a handful of epoll loops, so total OS threads are
// `reactor workers + one engine thread per node`, independent of the
// node×peer count.
//
// Threading model:
//   * Each Worker owns one epoll instance, one wake eventfd, a FIFO task
//     queue, and a timer heap, all serviced by a single thread.
//   * A handler (fd registration, timers, state) belongs to exactly ONE
//     worker; every callback for it runs on that worker's thread, so
//     handler state needs no locking.
//   * Other threads talk to a worker only through submit(), which is the
//     one thread-safe entry point (mutex-guarded queue + eventfd wake).
//     Tasks run FIFO: a task submitted before a handler's teardown task
//     can never observe the handler after teardown.
//   * Within one loop iteration the order is: dispatch epoll events,
//     run submitted tasks, fire due timers. Handlers are looked up in
//     the registration map per event, so a handler deregistered by an
//     earlier callback in the same batch is skipped, never dangled.
//
// Scheduling lag (time between a task's submission — or a timer's due
// point — and the moment it runs) is observed into the per-handler
// histogram supplied at schedule time; the engine registers
// iov_reactor_loop_lag_seconds there, so a node's report shows the lag
// *its* links experienced even though the pool is process-shared.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.h"
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

  void start();
  /// Asks the loop to exit and joins the thread. Idempotent.
  void stop_and_join();

  /// Runs `fn` on the worker thread, FIFO with other tasks. Thread safe;
  /// the only cross-thread entry point. `lag`, when non-null, receives
  /// the submit→run delay and must outlive the task.
  void submit(std::function<void()> fn, obs::Histogram* lag = nullptr);

  // --- Worker-thread-only API (call from handler callbacks or tasks) -------

  /// Registers `fd` with the given epoll interest mask.
  bool add_fd(int fd, u32 events, EventHandler* handler);
  /// Changes the interest mask of a registered fd.
  bool mod_fd(int fd, u32 events);
  /// Removes a registered fd; no callbacks for it run afterwards.
  void del_fd(int fd);

  /// Runs `fn` on this worker after `delay`. `owner` keys cancellation;
  /// `lag`, when non-null, receives the due→run delay.
  void schedule_after(Duration delay, void* owner, std::function<void()> fn,
                      obs::Histogram* lag = nullptr);
  /// Drops every pending timer scheduled under `owner`.
  void cancel_timers(void* owner);

  /// True when the calling thread is this worker's loop thread.
  bool on_worker_thread() const;

 private:
  struct Task {
    std::function<void()> fn;
    TimePoint submitted = 0;
    obs::Histogram* lag = nullptr;
  };
  struct Timer {
    TimePoint due = 0;
    u64 seq = 0;
    void* owner = nullptr;
    std::function<void()> fn;
    obs::Histogram* lag = nullptr;
    bool operator>(const Timer& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  void loop();
  void wake();
  Duration next_timeout() const;
  void run_tasks();
  void fire_timers();

  Fd epoll_fd_;
  Fd wake_fd_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  std::mutex task_mu_;
  std::vector<Task> tasks_;       // guarded by task_mu_
  std::vector<Task> running_;     // worker-thread scratch

  // Worker-thread-only state.
  std::unordered_map<int, EventHandler*> handlers_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  u64 timer_seq_ = 0;
};

/// The fixed worker pool. One process-shared instance drives every
/// engine (Reactor::shared()); tests may instantiate their own.
class Reactor {
 public:
  /// Starts `threads` workers (clamped to ≥ 1).
  explicit Reactor(int threads);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Round-robin worker assignment; a link keeps its worker for life.
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
