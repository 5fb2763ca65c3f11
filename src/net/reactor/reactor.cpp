#include "net/reactor/reactor.h"

#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"

namespace iov::reactor {
namespace {

constexpr int kMaxEvents = 128;
// Upper bound on one epoll_wait when timers are idle; keeps the loop
// responsive to stop() even if a wake write were ever lost.
constexpr Duration kIdleTimeout = millis(500);
// Deferred calls may defer more calls (a switch pass defers the send
// pumps it fed, a pump frees space and defers the next pass). Rounds past
// this bound wait for the next loop iteration, after a zero-timeout
// epoll_wait, so a busy node cannot starve its worker's sockets: two
// pass-then-pump cycles, then the sockets get their turn.
constexpr int kMaxDeferRounds = 4;

// The CPUs this process may run on, ascending (empty if unknown). Asked
// of the main thread (pid), not the caller, which may itself be pinned.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(getpid(), sizeof(set), &set) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace

Worker::Worker() = default;

Worker::~Worker() { stop_and_join(); }

void Worker::start(int cpu) {
  if (started_.exchange(true)) return;
  epoll_fd_ = Fd(epoll_create1(EPOLL_CLOEXEC));
  wake_fd_ = Fd(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!epoll_fd_.valid() || !wake_fd_.valid()) {
    IOV_LOG_ERROR("reactor") << "worker init failed: " << std::strerror(errno);
    return;
  }
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev);
  thread_ = std::thread([this] { loop(); });
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    const int err =
        pthread_setaffinity_np(thread_.native_handle(), sizeof(set), &set);
    if (err != 0) {
      IOV_LOG_WARN("reactor") << "pinning to cpu " << cpu
                              << " failed: " << std::strerror(err);
    }
  }
}

void Worker::stop_and_join() {
  if (!started_.load() || stop_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void Worker::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back(std::move(fn));
  }
  wake();
}

void Worker::call(const std::function<void()>& fn) {
  if (on_worker_thread()) {
    fn();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  submit([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();  // under the lock: the waiter owns mu and cv
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

void Worker::wake() {
  const u64 one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_.get(), &one, sizeof(one));
}

bool Worker::add_fd(int fd, u32 events, EventHandler* handler) {
  struct epoll_event ev {};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = handler;
  return true;
}

bool Worker::mod_fd(int fd, u32 events) {
  struct epoll_event ev {};
  ev.events = events;
  ev.data.fd = fd;
  return epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Worker::del_fd(int fd) {
  epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void Worker::schedule_after(Duration delay, void* owner,
                            std::function<void()> fn, obs::Histogram* lag) {
  timers_.push(RealClock::instance().now() + std::max<Duration>(delay, 0),
               owner, std::move(fn), lag);
}

void Worker::cancel_timers(void* owner) { timers_.cancel(owner); }

void Worker::defer(void* owner, std::function<void()> fn) {
  deferred_.push_back(Deferred{owner, std::move(fn)});
}

void Worker::cancel_deferred(void* owner) {
  // Cancelled entries stay in place (FIFO order of the rest is kept) and
  // are skipped when their turn comes.
  for (auto& d : deferred_) {
    if (d.owner == owner) d.fn = nullptr;
  }
  for (std::size_t i = deferring_idx_; i < deferring_.size(); ++i) {
    if (deferring_[i].owner == owner) deferring_[i].fn = nullptr;
  }
}

void Worker::retire(void* owner, std::unique_ptr<EventHandler> handler) {
  // A deferred call must be copyable: share the handler with it.
  defer(owner, [dead = std::shared_ptr<EventHandler>(std::move(handler))] {});
}

bool Worker::on_worker_thread() const {
  return std::this_thread::get_id() == thread_.get_id();
}

Duration Worker::next_timeout() {
  if (!deferred_.empty()) return 0;
  const std::optional<TimePoint> due = timers_.next_due();
  if (!due) return kIdleTimeout;
  const Duration until = *due - RealClock::instance().now();
  return std::clamp<Duration>(until, 0, kIdleTimeout);
}

void Worker::run_tasks() {
  running_.clear();
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    running_.swap(tasks_);
  }
  for (auto& task : running_) task();
  running_.clear();
}

void Worker::fire_timers() {
  const TimePoint now = RealClock::instance().now();
  TimerQueue::Timer t;
  while (timers_.pop_due(now, t)) {
    if (t.lag != nullptr) t.lag->observe_duration(now - t.due);
    t.fn();
  }
}

void Worker::run_deferred() {
  for (int round = 0; round < kMaxDeferRounds && !deferred_.empty(); ++round) {
    deferring_.swap(deferred_);
    for (deferring_idx_ = 0; deferring_idx_ < deferring_.size();) {
      // Move the call out first: it may cancel later entries of this
      // round, or destroy the object that owns it.
      std::function<void()> fn = std::move(deferring_[deferring_idx_].fn);
      ++deferring_idx_;
      if (fn) fn();
    }
    deferring_.clear();
    deferring_idx_ = 0;
  }
}

void Worker::loop() {
  struct epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const Duration timeout = next_timeout();
    // epoll_pwait2 takes a nanosecond deadline, so pacing timers fire on
    // time instead of rounded up to the next millisecond.
    struct timespec ts;
    ts.tv_sec = timeout / kNanosPerSec;
    ts.tv_nsec = timeout % kNanosPerSec;
    int n = epoll_pwait2(epoll_fd_.get(), events, kMaxEvents, &ts, nullptr);
    if (n < 0 && errno == ENOSYS) {
      n = epoll_wait(epoll_fd_.get(), events, kMaxEvents,
                     static_cast<int>(timeout / kNanosPerMilli) + 1);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      IOV_LOG_ERROR("reactor") << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) {
        u64 drained;
        while (read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // Look the handler up per event: an earlier callback in this batch
      // may have deregistered it.
      auto it = handlers_.find(fd);
      if (it != handlers_.end()) it->second->on_event(events[i].events);
    }
    run_tasks();
    fire_timers();
    run_deferred();
  }
  // Drain any final tasks so teardown work submitted just before stop
  // (e.g. link detach) still runs and nobody waits forever on it.
  run_tasks();
}

Reactor::Reactor(int threads) {
  const int n = std::max(threads, 1);
  const std::vector<int> cpus = allowed_cpus();
  const bool pin = static_cast<std::size_t>(n) <= cpus.size();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->start(pin ? cpus[static_cast<std::size_t>(i)] : -1);
  }
}

Reactor::~Reactor() {
  for (auto& w : workers_) w->stop_and_join();
}

Worker& Reactor::pick() {
  const u64 i = next_.fetch_add(1, std::memory_order_relaxed);
  return *workers_[i % workers_.size()];
}

Reactor& Reactor::shared() {
  // A function-local static outlives main, so links can always reach
  // their worker.
  static Reactor pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    const int threads = std::max(1, std::min(4, static_cast<int>(hw)));
    IOV_LOG_INFO("reactor") << "shared epoll pool started: " << threads
                            << " worker thread(s)";
    return threads;
  }());
  return pool;
}

}  // namespace iov::reactor
