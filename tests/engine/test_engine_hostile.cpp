// Hostile peers against a live node: connections to the publicized port
// that stop half-way through the hello, or half-way through a control
// frame, must not stall the node's relaying (an engine shares its
// reactor worker with every other node on it, so nothing may block), and
// must not leak descriptors once the peers go away.
#include <gtest/gtest.h>

#include <dirent.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "apps/sink.h"
#include "apps/source.h"
#include "engine/engine.h"
#include "engine_test_util.h"
#include "net/framing.h"

namespace iov::engine {
namespace {

using apps::CbrSource;
using apps::SinkApp;
using test::RecordingRelay;
using test::wait_until;

constexpr u32 kApp = 1;
constexpr std::size_t kPayload = 1000;
constexpr double kRate = 256;  // messages per second

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

Node make_node() {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  n.engine = std::make_unique<Engine>(EngineConfig{}, std::move(algorithm));
  return n;
}

TEST(EngineHostile, HalfSentHellosAndFramesDoNotStallARelay) {
  // source -> relay -> sink at 256 msg/s; the relay is attacked.
  Node source = make_node();
  Node relay = make_node();
  Node sink_node = make_node();
  source.engine->register_app(
      kApp, std::make_shared<CbrSource>(kPayload, kRate * kPayload));
  auto sink = std::make_shared<SinkApp>(kPayload);
  sink_node.engine->register_app(kApp, sink);
  sink_node.relay->set_consume(kApp, true);
  ASSERT_TRUE(sink_node.engine->start());
  ASSERT_TRUE(relay.engine->start());
  ASSERT_TRUE(source.engine->start());
  relay.relay->add_child(kApp, sink_node.engine->self());
  source.relay->add_child(kApp, relay.engine->self());
  source.engine->deploy_source(kApp);
  ASSERT_TRUE(wait_until([&] { return sink->stats(0).distinct >= 64; }));
  const std::size_t fd_base = open_fd_count();

  // 100 peers send 1 byte of the 16-byte hello; 100 send a complete
  // control hello and then 4 of a frame's 24 header bytes. All go silent.
  std::vector<TcpConn> hostile;
  const auto hello =
      encode_hello(Hello{ConnKind::kControl, NodeId::loopback(9)});
  const auto header = codec::encode_header(
      *Msg::control(MsgType::kControl, NodeId::loopback(9), kControlApp));
  const TimePoint burst = RealClock::instance().now();
  for (int i = 0; i < 200; ++i) {
    // A loaded host can leave the node's worker unscheduled while this
    // loop fills the 128-deep accept queue; the next SYN is then dropped
    // and retransmitted after 1 s, so allow for one retransmission.
    auto conn = TcpConn::connect(relay.engine->self(), seconds(5.0));
    ASSERT_TRUE(conn.has_value())
        << "connection " << i << ": " << std::strerror(errno) << " after "
        << to_seconds(RealClock::instance().now() - burst) << " s, "
        << open_fd_count() << " fds open";
    if (i < 100) {
      ASSERT_TRUE(conn->write_all(hello.data(), 1));
    } else {
      ASSERT_TRUE(conn->write_all(hello.data(), hello.size()));
      ASSERT_TRUE(conn->write_all(header.data(), 4));
    }
    hostile.push_back(std::move(*conn));
  }

  // Over 3 s, every 250 ms window delivers at least 80% of its share.
  const Duration kWindow = millis(250);
  TimePoint t0 = RealClock::instance().now();
  u64 n0 = sink->stats(0).distinct;
  for (int w = 0; w < 12; ++w) {
    sleep_for(kWindow);
    const TimePoint t1 = RealClock::instance().now();
    const u64 n1 = sink->stats(0).distinct;
    const double expected = kRate * to_seconds(t1 - t0);
    EXPECT_GE(static_cast<double>(n1 - n0), 0.8 * expected)
        << "window " << w << " delivered " << (n1 - n0) << " of ~"
        << expected;
    t0 = t1;
    n0 = n1;
  }

  // Once the peers go away, so do the node's descriptors for them.
  hostile.clear();
  EXPECT_TRUE(wait_until([&] { return open_fd_count() <= fd_base; }))
      << open_fd_count() << " fds open, " << fd_base << " before the attack";
}

}  // namespace
}  // namespace iov::engine
