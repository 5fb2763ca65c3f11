// Reactor tests (DESIGN.md §9), two layers:
//   * Worker/Reactor unit tests — task FIFO, timers + cancellation, and
//     fd readiness callbacks over a socketpair; TimerQueue against a
//     reference model, its dead-entry bound and a cancellation cost
//     guard;
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
#include <optional>
#include <random>
#include <string>
#include <tuple>
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
using reactor::TimerQueue;
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

TEST(ReactorWorker, CancelledTimerNeverRunsWhenANewOwnerReusesItsAddress) {
  Worker w;
  w.start();
  std::atomic<int> stale{0};
  std::atomic<int> fresh{0};
  // One storage slot stands for an object that is destroyed and then
  // re-created at the same address: the timers are keyed by address only.
  alignas(std::max_align_t) unsigned char slot[16];
  void* const owner = slot;
  w.call([&] {
    for (int i = 0; i < 10; ++i) {
      w.schedule_after(millis(1 + i), owner, [&] { stale.fetch_add(1); });
    }
    w.cancel_timers(owner);  // the first object goes away
    w.schedule_after(millis(5), owner, [&] { fresh.fetch_add(1); });
  });
  ASSERT_TRUE(wait_until([&] { return fresh.load() == 1; }));
  sleep_for(millis(30));
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(fresh.load(), 1);
  w.stop_and_join();
}

TEST(ReactorWorker, CallbackMayCancelItsOwnerAndScheduleAgain) {
  Worker w;
  w.start();
  int owner = 0;
  std::atomic<bool> again{false};
  std::atomic<bool> stale{false};
  w.call([&] {
    w.schedule_after(millis(2), &owner, [&] {
      w.cancel_timers(&owner);  // drops the 20 ms timer below
      w.schedule_after(millis(2), &owner, [&] { again.store(true); });
    });
    w.schedule_after(millis(20), &owner, [&] { stale.store(true); });
  });
  ASSERT_TRUE(wait_until([&] { return again.load(); }));
  sleep_for(millis(40));
  EXPECT_FALSE(stale.load());
  w.stop_and_join();
}

TEST(ReactorWorker, EqualDelaysFireInScheduleOrderAroundCancels) {
  Worker w;
  w.start();
  std::vector<int> owners(10);
  std::vector<int> fired;  // touched on the worker only
  std::atomic<int> done{0};
  std::vector<int> expected;
  w.call([&] {
    for (int i = 0; i < 200; ++i) {
      w.schedule_after(0, &owners[i % 10], [&, i] {
        fired.push_back(i);
        done.fetch_add(1);
      });
      if (i % 10 % 3 != 0) expected.push_back(i);
    }
    for (int k = 0; k < 10; k += 3) w.cancel_timers(&owners[k]);
  });
  const int want = static_cast<int>(expected.size());
  ASSERT_TRUE(wait_until([&] { return done.load() == want; }));
  sleep_for(millis(20));
  w.call([&] { EXPECT_EQ(fired, expected); });
  w.stop_and_join();
}

TEST(ReactorWorker, TenThousandCancelsBesideTenThousandTimersStayCheap) {
  Worker w;
  w.start();
  constexpr int kTimers = 10000;
  std::vector<char> owners(2 * kTimers);
  Duration took = 0;
  w.call([&] {
    for (int i = 0; i < kTimers; ++i) {
      w.schedule_after(seconds(3600), &owners[i], [] {});
    }
    const TimePoint t0 = RealClock::instance().now();
    for (int i = kTimers; i < 2 * kTimers; ++i) {
      w.schedule_after(seconds(3600), &owners[i], [] {});
      w.cancel_timers(&owners[i]);
    }
    took = RealClock::instance().now() - t0;
  });
  // A few milliseconds when a cancel costs O(1) amortized (tens under a
  // sanitizer); rebuilding the 10,000-timer heap per cancel takes about
  // 1 ms each, 10 s in all.
  EXPECT_LT(took, seconds(1.0)) << to_seconds(took) << " s";
  w.stop_and_join();
}

/// A TimerQueue driven by a seeded random sequence of schedules, cancels
/// and clock advances fires exactly the reference model's live timers, in
/// (due, schedule order).
TEST(TimerQueue, MatchesAReferenceModelUnderRandomScheduleAndCancel) {
  struct Entry {
    TimePoint due;
    u64 seq;
    int owner;
    int id;
  };
  std::mt19937_64 rng(20);
  TimerQueue q;
  std::vector<Entry> model;  // live entries only
  std::vector<int> owners(16);
  std::vector<int> fired;
  TimePoint now = 0;
  u64 seq = 0;
  int next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    const u64 op = rng() % 10;
    if (op < 6) {
      const TimePoint due = now + static_cast<TimePoint>(rng() % 1000);
      const int owner = static_cast<int>(rng() % owners.size());
      const int id = next_id++;
      q.push(due, &owners[owner], [&fired, id] { fired.push_back(id); });
      model.push_back(Entry{due, ++seq, owner, id});
    } else if (op < 8) {
      const int owner = static_cast<int>(rng() % owners.size());
      q.cancel(&owners[owner]);
      std::erase_if(model, [&](const Entry& e) { return e.owner == owner; });
    } else {
      now += static_cast<TimePoint>(rng() % 200);
      std::vector<Entry> due;
      std::erase_if(model, [&](const Entry& e) {
        if (e.due > now) return false;
        due.push_back(e);
        return true;
      });
      std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
        return std::tie(a.due, a.seq) < std::tie(b.due, b.seq);
      });
      std::vector<int> want;
      for (const auto& e : due) want.push_back(e.id);
      fired.clear();
      TimerQueue::Timer t;
      while (q.pop_due(now, t)) t.fn();
      ASSERT_EQ(fired, want) << "step " << step;
    }
    ASSERT_EQ(q.live(), model.size()) << "step " << step;
    ASSERT_LE(q.dead(), q.live()) << "step " << step;
    std::optional<TimePoint> first;
    for (const auto& e : model) {
      if (!first || e.due < *first) first = e.due;
    }
    ASSERT_EQ(q.next_due(), first) << "step " << step;
  }
}

/// 10^5 owners, each used once, as links and accepted connections are:
/// the cancelled entries and the owner records stay proportional to the
/// live timers, whether the dead entries are due before or after them.
TEST(TimerQueue, DeadEntriesStayBoundedUnderDistinctOwners) {
  constexpr int kCycles = 100000;
  TimerQueue q;
  int anchor = 0;
  for (int i = 0; i < 100; ++i) q.push(1'000'000'000, &anchor, [] {});
  std::vector<char> owners(kCycles);
  TimePoint now = 0;
  std::size_t fired = 0;
  std::size_t kept = 0;
  for (int i = 0; i < kCycles; ++i) {
    for (int k = 0; k <= i % 3; ++k) {
      q.push(now + (i % 7) * 10, &owners[i], [&fired] { ++fired; });
    }
    if (i % 4 != 0) {
      q.cancel(&owners[i]);
    } else {
      kept += static_cast<std::size_t>(i % 3 + 1);
    }
    if (i % 50 == 49) {
      now += 100;
      TimerQueue::Timer t;
      while (q.pop_due(now, t)) t.fn();
    }
    ASSERT_LE(q.dead(), q.live()) << "cycle " << i;
    ASSERT_LE(q.owners(), q.live() + q.dead() + 1) << "cycle " << i;
  }
  TimerQueue::Timer t;
  while (q.pop_due(now + 1000, t)) t.fn();
  EXPECT_EQ(fired, kept);
  EXPECT_EQ(q.live(), 100u);
  EXPECT_LE(q.dead(), 100u);
  EXPECT_LE(q.owners(), 2u);  // the anchor, and at most one idle record
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
