// Hostile peers against the observer and the proxy. Both run on a worker
// of the shared reactor, beside engines, so nothing a peer does may make
// them wait: connections that stop half-way through the hello or half
// way through a control frame must not delay a real node's boot reply or
// its reports, a client that never reads must not block send_control or
// anyone else, and the descriptors go away with the peers.
#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "message/codec.h"
#include "obs/metric_names.h"
#include "observer/observer.h"
#include "observer/proxy.h"
#include "../engine/engine_test_util.h"
#include "../net/net_test_util.h"

namespace iov::observer {
namespace {

using engine::Engine;
using engine::EngineConfig;
using test::RecordingRelay;
using test::wait_until;

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

struct Node {
  std::unique_ptr<Engine> engine;
  RecordingRelay* relay = nullptr;  // owned by engine
};

Node make_node(const NodeId& observer, const NodeId& proxy = NodeId()) {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  EngineConfig config;
  config.observer = observer;
  config.report_proxy = proxy;
  config.report_interval = millis(50);
  n.engine = std::make_unique<Engine>(config, std::move(algorithm));
  return n;
}

TimePoint last_seen(const Observer& obs, const NodeId& node) {
  const auto info = obs.node(node);
  return info ? info->last_seen : 0;
}

/// 100 connections that send 1 byte of the 16-byte hello, and 100 that
/// send a complete control hello (each from its own sender) and then 4
/// of a frame's 24 header bytes. All go silent.
std::vector<TcpConn> attack(const NodeId& target) {
  std::vector<TcpConn> hostile;
  const auto header = codec::encode_header(
      *Msg::control(MsgType::kControl, NodeId::loopback(9), kControlApp));
  const TimePoint burst = RealClock::instance().now();
  for (int i = 0; i < 200; ++i) {
    // A loaded host can leave the target's worker unscheduled while this
    // loop fills the 128-deep accept queue; the next SYN is then dropped
    // and retransmitted after 1 s, so allow for one retransmission.
    auto conn = TcpConn::connect(target, seconds(5.0));
    EXPECT_TRUE(conn.has_value())
        << "connection " << i << ": " << std::strerror(errno) << " after "
        << to_seconds(RealClock::instance().now() - burst) << " s";
    if (!conn) break;
    const auto hello = encode_hello(Hello{
        ConnKind::kControl, NodeId::loopback(static_cast<u16>(20000 + i))});
    if (i < 100) {
      EXPECT_TRUE(conn->write_all(hello.data(), 1));
    } else {
      EXPECT_TRUE(conn->write_all(hello.data(), hello.size()));
      EXPECT_TRUE(conn->write_all(header.data(), 4));
    }
    hostile.push_back(std::move(*conn));
  }
  return hostile;
}

/// Over 3 s, every 250 ms window must see `progress()` move.
void expect_progress_every_window(const std::function<u64()>& progress,
                                  const char* what) {
  u64 before = progress();
  for (int w = 0; w < 12; ++w) {
    sleep_for(millis(250));
    const u64 now = progress();
    EXPECT_GT(now, before) << what << " stalled in window " << w;
    before = now;
  }
}

TEST(ObserverHostile, HalfSentHellosAndFramesDelayNoBootOrReport) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] { return last_seen(obs, a.engine->self()) > 0; }));
  const std::size_t fd_base = open_fd_count();

  std::vector<TcpConn> hostile = attack(obs.address());

  // A node booting now gets its reply, naming the first node, at once.
  Node b = make_node(obs.address());
  const TimePoint boot = RealClock::instance().now();
  ASSERT_TRUE(b.engine->start());
  EXPECT_TRUE(wait_until([&] { return b.relay->knows(a.engine->self()); },
                         seconds(3.0)))
      << "no bootstrap reply within 3 s";
  EXPECT_LT(RealClock::instance().now() - boot, seconds(3.0));

  expect_progress_every_window(
      [&] { return static_cast<u64>(last_seen(obs, a.engine->self())); },
      "node a's reports");

  // Once the peers go away, so do the observer's descriptors for them.
  b.engine->stop();
  b.engine->join();
  hostile.clear();
  EXPECT_TRUE(wait_until([&] { return open_fd_count() <= fd_base; }))
      << open_fd_count() << " fds open, " << fd_base << " before the attack";
}

TEST(ObserverHostile, ControlClientThatNeverReadsBlocksNobody) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 1; }));

  // A client with a small receive window that never reads a byte.
  const NodeId deaf = NodeId::loopback(4242);
  auto conn = TcpConn::connect(obs.address(), seconds(1.0), 4096);
  ASSERT_TRUE(conn.has_value());
  ASSERT_TRUE(test::write_hello(*conn, Hello{ConnKind::kControl, deaf}));
  ASSERT_TRUE(wait_until(
      [&] { return obs.send_control(deaf, MsgType::kControl, 0); }));

  // Commands pile up in the kernel, then in the link's send buffer; once
  // that is full, send_control says so instead of waiting.
  const std::string text(8 * 1024, 'x');
  const TimePoint t0 = RealClock::instance().now();
  int sent = 0;
  while (obs.send_control(deaf, MsgType::kControl, sent, 0, text)) {
    ++sent;
    ASSERT_LT(sent, 100000) << "the send buffer never filled";
  }
  EXPECT_GE(sent, static_cast<int>(engine::kControlLinkMsgs));
  EXPECT_LT(RealClock::instance().now() - t0, seconds(5.0));

  // The other node still reports, and still takes commands.
  expect_progress_every_window(
      [&] { return static_cast<u64>(last_seen(obs, a.engine->self())); },
      "node a's reports");
  ASSERT_TRUE(obs.request_report(a.engine->self()));
  EXPECT_TRUE(wait_until([&] {
    const auto snap = obs.metrics().snapshot();
    for (const auto& s : snap.samples) {
      if (s.name == obs::names::kObserverReportRttSeconds) {
        return s.hist.count > 0;
      }
    }
    return false;
  }));
}

TEST(ProxyHostile, HalfSentHellosAndFramesDelayNoReport) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  ProxyConfig proxy_config;
  proxy_config.observer = obs.address();
  Proxy proxy(proxy_config);
  ASSERT_TRUE(proxy.start());
  Node a = make_node(obs.address(), proxy.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] {
    return proxy.relayed() > 0 && last_seen(obs, a.engine->self()) > 0;
  }));
  const std::size_t fd_base = open_fd_count();

  std::vector<TcpConn> hostile = attack(proxy.address());

  expect_progress_every_window([&] { return proxy.relayed(); },
                               "the proxy's relaying");
  expect_progress_every_window(
      [&] { return static_cast<u64>(last_seen(obs, a.engine->self())); },
      "node a's relayed reports");

  hostile.clear();
  EXPECT_TRUE(wait_until([&] { return open_fd_count() <= fd_base; }))
      << open_fd_count() << " fds open, " << fd_base << " before the attack";
}

TEST(ProxyHostile, ObserverThatNeverReadsBlocksNoNode) {
  // The proxy's upstream accepts the connection and never reads.
  auto deaf = TcpListener::listen(0, true, 8, 4096);
  ASSERT_TRUE(deaf.has_value());
  ProxyConfig proxy_config;
  proxy_config.observer = NodeId::loopback(deaf->port());
  Proxy proxy(proxy_config);
  ASSERT_TRUE(proxy.start());

  // A node floods the proxy with 16 KB reports: far more than the
  // upstream's kernel buffers and send buffer hold. The proxy must keep
  // reading (and drop what it cannot queue), or these writes never end.
  auto node = TcpConn::connect(proxy.address(), seconds(1.0));
  ASSERT_TRUE(node.has_value());
  const NodeId self = NodeId::loopback(4343);
  ASSERT_TRUE(test::write_hello(*node, Hello{ConnKind::kControl, self}));
  constexpr int kReports = 4000;
  const MsgPtr report = Msg::text_msg(MsgType::kReport, self, kControlApp,
                                      std::string(16 * 1024, 'r'));
  std::atomic<int> written{0};
  std::thread writer([&] {
    for (int i = 0; i < kReports; ++i) {
      if (!test::write_frame(*node, report)) return;
      written.fetch_add(1);
    }
  });
  EXPECT_TRUE(wait_until([&] { return written.load() == kReports; },
                         seconds(20.0)))
      << "the proxy stopped reading after " << written.load() << " reports";
  EXPECT_TRUE(wait_until([&] { return proxy.relayed() > 0; }));
  EXPECT_LT(proxy.relayed(), static_cast<u64>(kReports));

  // stop() closes everything, which also frees a writer still blocked.
  const TimePoint t0 = RealClock::instance().now();
  proxy.stop();
  EXPECT_LT(RealClock::instance().now() - t0, seconds(1.0));
  writer.join();
}

}  // namespace
}  // namespace iov::observer
