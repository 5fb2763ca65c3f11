// Reactor tests (DESIGN.md §9), two layers:
//   * Worker/Reactor unit tests — task FIFO, timers + cancellation, and
//     fd readiness callbacks over a socketpair;
//   * a PeerLink-level fd/thread leak regression — open/close 200 links
//     and assert process fd and thread counts return to baseline (the
//     pool is created once and excluded).
#include "net/reactor/reactor.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sched.h>
#include <unistd.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>
#include <vector>

#include "engine/peer_link.h"
#include "../engine/engine_test_util.h"
#include "net_test_util.h"

namespace iov {
namespace {

using engine::EngineConfig;
using engine::LinkOwner;
using engine::PeerLink;
using reactor::EventHandler;
using reactor::Reactor;
using reactor::Worker;
using test::wait_until;

// ---------------------------------------------------------------------------
// Worker / Reactor unit tests
// ---------------------------------------------------------------------------

TEST(ReactorWorker, SubmittedTasksRunFifo) {
  Worker w;
  w.start();
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    w.submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      done.fetch_add(1);
    });
  }
  ASSERT_TRUE(wait_until([&] { return done.load() == 32; }));
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
  w.stop_and_join();
}

TEST(ReactorWorker, TimerFiresAfterDelayAndCancelDrops) {
  Worker w;
  w.start();
  std::atomic<bool> fired{false};
  std::atomic<bool> cancelled_fired{false};
  int owner_a = 0;
  int owner_b = 0;
  const TimePoint scheduled_at = RealClock::instance().now();
  w.submit([&] {
    w.schedule_after(millis(30), &owner_a, [&] { fired.store(true); });
    w.schedule_after(millis(30), &owner_b,
                     [&] { cancelled_fired.store(true); });
    w.cancel_timers(&owner_b);
  });
  ASSERT_TRUE(wait_until([&] { return fired.load(); }));
  // The timer must not have fired early...
  EXPECT_GE(RealClock::instance().now() - scheduled_at, millis(25));
  // ...and the cancelled one must never fire.
  sleep_for(millis(60));
  EXPECT_FALSE(cancelled_fired.load());
  w.stop_and_join();
}

/// Echo handler: reads whatever arrives on its fd and records it.
class Recorder final : public EventHandler {
 public:
  Recorder(Worker& w, int fd) : w_(w), fd_(fd) {}

  void on_event(u32 events) override {
    if ((events & EPOLLIN) == 0) return;
    char buf[256];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      w_.del_fd(fd_);
      closed_.store(true);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    got_.append(buf, static_cast<std::size_t>(n));
  }

  std::string got() const {
    std::lock_guard<std::mutex> lock(mu_);
    return got_;
  }
  bool closed() const { return closed_.load(); }

 private:
  Worker& w_;
  int fd_;
  mutable std::mutex mu_;
  std::string got_;
  std::atomic<bool> closed_{false};
};

TEST(ReactorWorker, FdReadinessDispatchesToHandler) {
  Worker w;
  w.start();
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  Recorder rec(w, sp[0]);
  w.submit([&] { ASSERT_TRUE(w.add_fd(sp[0], EPOLLIN, &rec)); });
  ASSERT_EQ(::send(sp[1], "ping", 4, 0), 4);
  ASSERT_TRUE(wait_until([&] { return rec.got() == "ping"; }));
  // Peer close surfaces as a readable EOF and the handler deregisters.
  ::close(sp[1]);
  ASSERT_TRUE(wait_until([&] { return rec.closed(); }));
  w.stop_and_join();
  ::close(sp[0]);
}

TEST(ReactorWorker, DeferredCallsRunAfterTheBatchInFifoOrder) {
  Worker w;
  w.start();
  std::vector<std::string> order;  // touched on the worker only
  int owner_a = 0;
  int owner_b = 0;
  w.call([&] {
    w.defer(&owner_a, [&] {
      order.push_back("d1");
      // Deferred from a deferred call: same pass, after the rest.
      w.defer(&owner_a, [&] { order.push_back("d3"); });
    });
    w.defer(&owner_b, [&] { order.push_back("cancelled"); });
    w.defer(&owner_a, [&] { order.push_back("d2"); });
    w.cancel_deferred(&owner_b);
    order.push_back("task");
  });
  w.call([] {});  // a later loop iteration: the deferred pass is over
  EXPECT_EQ(order, (std::vector<std::string>{"task", "d1", "d2", "d3"}));
  w.stop_and_join();
}

TEST(ReactorWorker, CallRunsInlineOnTheWorker) {
  Worker w;
  w.start();
  bool inner_ran = false;
  w.call([&] {
    w.call([&] { inner_ran = true; });  // would deadlock if it queued
    EXPECT_TRUE(inner_ran);
    EXPECT_TRUE(w.on_worker_thread());
  });
  EXPECT_TRUE(inner_ran);
  EXPECT_FALSE(w.on_worker_thread());
  w.stop_and_join();
}

/// Re-defers itself until told to stop: a node that always has work.
struct Spinner {
  Worker& w;
  std::atomic<bool> stop{false};
  std::atomic<u64> runs{0};
  void go() {
    runs.fetch_add(1);
    if (!stop.load()) w.defer(this, [this] { go(); });
  }
};

TEST(ReactorWorker, EndlessDeferredWorkDoesNotStarveSockets) {
  Worker w;
  w.start();
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  Recorder rec(w, sp[0]);
  Spinner spin{w};
  w.call([&] {
    ASSERT_TRUE(w.add_fd(sp[0], EPOLLIN, &rec));
    spin.go();
  });
  ASSERT_EQ(::send(sp[1], "ping", 4, 0), 4);
  EXPECT_TRUE(wait_until([&] { return rec.got() == "ping"; }));
  EXPECT_GT(spin.runs.load(), 1u);
  spin.stop.store(true);
  w.call([&] { w.cancel_deferred(&spin); });
  w.stop_and_join();
  ::close(sp[0]);
  ::close(sp[1]);
}

TEST(ReactorPool, PickRoundRobinsAcrossWorkers) {
  Reactor pool(2);
  EXPECT_EQ(pool.threads(), 2);
  Worker& a = pool.pick();
  Worker& b = pool.pick();
  Worker& c = pool.pick();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &c);
}

std::vector<int> cpus_of(const cpu_set_t& set) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

std::vector<int> process_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(getpid(), sizeof(set), &set), 0);
  return cpus_of(set);
}

/// The CPUs worker `w`'s thread may run on.
std::vector<int> worker_cpus(Worker& w) {
  cpu_set_t set;
  CPU_ZERO(&set);
  w.call([&] { EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0); });
  return cpus_of(set);
}

TEST(ReactorPool, PinsWorkerKToTheKthAllowedCpu) {
  const auto allowed = process_cpus();
  const int n = static_cast<int>(std::min<std::size_t>(allowed.size(), 4));
  Reactor pool(n);
  for (int k = 0; k < n; ++k) {
    EXPECT_EQ(worker_cpus(pool.pick()),
              std::vector<int>{allowed[static_cast<std::size_t>(k)]})
        << "worker " << k;
  }
}

TEST(ReactorPool, MoreWorkersThanCpusRunUnpinned) {
  const auto allowed = process_cpus();
  if (allowed.size() > 16) GTEST_SKIP() << "too many CPUs for this test";
  const int n = static_cast<int>(allowed.size()) + 1;
  Reactor pool(n);
  for (int k = 0; k < n; ++k) {
    EXPECT_EQ(worker_cpus(pool.pick()), allowed) << "worker " << k;
  }
}

// ---------------------------------------------------------------------------
// fd / thread leak regression (ISSUE 9 satellite)
// ---------------------------------------------------------------------------

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n > 0 ? n - 3 : 0;  // ".", "..", and the DIR's own fd
}

std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// Ignores everything; enough LinkOwner for a bare PeerLink.
class NullSink final : public LinkOwner {
 public:
  void on_link_message(PeerLink&, MsgPtr) override {}
  void on_link_failed(PeerLink&, MsgType) override {}
};

TEST(ReactorLeak, TwoHundredLinkCyclesLeakNothing) {
  // One shared fixture outside the measured loop: the pools (persist by
  // design), registries, and emulators.
  Reactor pool(1);
  Worker& worker = pool.pick();
  SlabPool slabs;
  obs::MetricsRegistry metrics_a;
  obs::MetricsRegistry metrics_b;
  BandwidthEmulator bandwidth;
  NullSink sink;
  EngineConfig config;
  const NodeId self_a(0x7f000001u, 1111);
  const NodeId self_b(0x7f000001u, 2222);

  auto run_cycle = [&] {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.has_value());
    auto client = TcpConn::connect(NodeId::loopback(listener->port()),
                                   seconds(1.0));
    ASSERT_TRUE(client.has_value());
    ASSERT_TRUE(test::wait_readable(listener->fd(), seconds(1.0)));
    auto server = listener->accept();
    ASSERT_TRUE(server.has_value());
    ASSERT_TRUE(client->set_nonblocking(true));

    // Links live on their worker: build, drive and destroy them there.
    std::unique_ptr<PeerLink> a;
    std::unique_ptr<PeerLink> b;
    bool pushed = false;
    worker.call([&] {
      a = std::make_unique<PeerLink>(self_a, self_b, std::move(*client),
                                     config, bandwidth, RealClock::instance(),
                                     sink, metrics_a, slabs, worker);
      b = std::make_unique<PeerLink>(self_b, self_a, std::move(*server),
                                     config, bandwidth, RealClock::instance(),
                                     sink, metrics_b, slabs, worker);
      a->start();
      b->start();
      // Prove the link is live: one data message a→b.
      pushed = a->send_buffer().try_push(
          Msg::data(self_a, 7, 0, Buffer::from_string("leakcheck")));
      a->notify_send();
    });
    ASSERT_TRUE(pushed);
    std::optional<engine::Inbound> in;
    ASSERT_TRUE(wait_until([&] {
      worker.call([&] { in = b->recv_buffer().try_pop(); });
      return in.has_value();
    }));
    EXPECT_EQ(in->msg->payload()->size(), 9u);

    worker.call([&] {
      a.reset();
      b.reset();
    });
  };

  // Warm-up absorbs lazily created process state (metric rows, etc.).
  run_cycle();
  const std::size_t fd_base = open_fd_count();
  const std::size_t thread_base = thread_count();

  for (int i = 0; i < 200; ++i) {
    run_cycle();
    if (HasFatalFailure()) {
      FAIL() << "cycle " << i << " failed";
    }
  }

  EXPECT_EQ(open_fd_count(), fd_base);
  EXPECT_EQ(thread_count(), thread_base);
}

}  // namespace
}  // namespace iov
