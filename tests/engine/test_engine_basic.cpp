// Engine integration tests over real loopback TCP: lifecycle, data flow
// through the switch, zero-loss delivery with integrity checks, chains,
// fan-out, bandwidth caps, timers and the ping/pong probe.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include "apps/sink.h"
#include "apps/source.h"
#include "engine_test_util.h"
#include "obs/metric_names.h"

namespace iov::engine {
namespace {

using apps::BackToBackSource;
using apps::SinkApp;
using test::RecordingRelay;
using test::wait_until;

constexpr u32 kApp = 1;
constexpr std::size_t kPayload = 1000;

struct Node {
  std::unique_ptr<Engine> engine;
  RelayAlgorithm* relay = nullptr;  // owned by engine
};

Node make_node(const EngineConfig& base = {}) {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  EngineConfig config = base;
  n.engine = std::make_unique<Engine>(config, std::move(algorithm));
  return n;
}

TEST(EngineBasic, StartAssignsEphemeralPortAndStops) {
  Node n = make_node();
  ASSERT_TRUE(n.engine->start());
  EXPECT_TRUE(n.engine->self().valid());
  EXPECT_EQ(n.engine->self().ip(), 0x7f000001u);
  EXPECT_TRUE(n.engine->running());
  n.engine->stop();
  n.engine->join();
  EXPECT_FALSE(n.engine->running());
}

TEST(EngineBasic, TwoNodesDeliverBoundedStreamWithoutLoss) {
  Node a = make_node();
  Node b = make_node();
  auto sink = std::make_shared<SinkApp>(kPayload);
  constexpr u64 kMsgs = 300;
  a.engine->register_app(kApp,
                         std::make_shared<BackToBackSource>(kPayload, kMsgs));
  b.engine->register_app(kApp, sink);
  ASSERT_TRUE(b.engine->start());
  ASSERT_TRUE(a.engine->start());
  b.relay->set_consume(kApp, true);

  // Runtime configuration through the control path.
  a.engine->post(Msg::control(MsgType::kControl, NodeId(), kControlApp,
                              RelayAlgorithm::kAddChild,
                              static_cast<i32>(kApp),
                              b.engine->self().to_string()));
  a.engine->deploy_source(kApp);

  ASSERT_TRUE(wait_until([&] {
    return sink->stats(RealClock::instance().now()).distinct == kMsgs;
  }));
  const auto stats = sink->stats(RealClock::instance().now());
  EXPECT_EQ(stats.msgs, kMsgs);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST(EngineBasic, FourNodeChainDeliversEndToEnd) {
  std::vector<Node> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(make_node());
  auto sink = std::make_shared<SinkApp>(kPayload);
  constexpr u64 kMsgs = 200;
  nodes[0].engine->register_app(
      kApp, std::make_shared<BackToBackSource>(kPayload, kMsgs));
  nodes[3].engine->register_app(kApp, sink);
  for (auto& n : nodes) ASSERT_TRUE(n.engine->start());
  for (int i = 0; i < 3; ++i) {
    nodes[i].relay->add_child(kApp, nodes[i + 1].engine->self());
  }
  nodes[3].relay->set_consume(kApp, true);
  nodes[0].engine->deploy_source(kApp);

  ASSERT_TRUE(wait_until([&] {
    return sink->stats(RealClock::instance().now()).distinct == kMsgs;
  }));
  EXPECT_EQ(sink->stats(RealClock::instance().now()).corrupt, 0u);
}

// The switch reads the clock once per popped batch plus once per message
// (chained stamps); each switched message must still be observed exactly
// once in each of the two switch histograms.
TEST(EngineBasic, SwitchHistogramsObserveOncePerSwitchedMessage) {
  std::vector<Node> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(make_node());
  auto sink = std::make_shared<SinkApp>(kPayload);
  constexpr u64 kMsgs = 500;
  nodes[0].engine->register_app(
      kApp, std::make_shared<BackToBackSource>(kPayload, kMsgs));
  nodes[2].engine->register_app(kApp, sink);
  for (auto& n : nodes) ASSERT_TRUE(n.engine->start());
  for (int i = 0; i < 2; ++i) {
    nodes[i].relay->add_child(kApp, nodes[i + 1].engine->self());
  }
  nodes[2].relay->set_consume(kApp, true);
  nodes[0].engine->deploy_source(kApp);
  ASSERT_TRUE(wait_until([&] {
    return sink->stats(RealClock::instance().now()).distinct == kMsgs;
  }));

  for (int i = 1; i < 3; ++i) {
    obs::MetricsRegistry& metrics = nodes[i].engine->metrics();
    const obs::Counter& switched =
        metrics.counter(obs::names::kSwitchMessagesTotal);
    const obs::Histogram& latency =
        metrics.histogram(obs::names::kSwitchLatencySeconds);
    const obs::Histogram& process =
        metrics.histogram(obs::names::kSwitchProcessSeconds);
    EXPECT_TRUE(wait_until([&] {
      return switched.value() == kMsgs && latency.count() == kMsgs &&
             process.count() == kMsgs;
    })) << "node " << i << ": switched " << switched.value()
        << ", latency " << latency.count() << ", process "
        << process.count();
  }
}

TEST(EngineBasic, FanOutCopiesToAllChildren) {
  Node a = make_node();
  Node b = make_node();
  Node c = make_node();
  auto sink_b = std::make_shared<SinkApp>(kPayload);
  auto sink_c = std::make_shared<SinkApp>(kPayload);
  constexpr u64 kMsgs = 150;
  a.engine->register_app(kApp,
                         std::make_shared<BackToBackSource>(kPayload, kMsgs));
  b.engine->register_app(kApp, sink_b);
  c.engine->register_app(kApp, sink_c);
  for (auto* n : {&a, &b, &c}) ASSERT_TRUE(n->engine->start());
  a.relay->add_child(kApp, b.engine->self());
  a.relay->add_child(kApp, c.engine->self());
  b.relay->set_consume(kApp, true);
  c.relay->set_consume(kApp, true);
  a.engine->deploy_source(kApp);

  ASSERT_TRUE(wait_until([&] {
    const TimePoint t = RealClock::instance().now();
    return sink_b->stats(t).distinct == kMsgs &&
           sink_c->stats(t).distinct == kMsgs;
  }));
  EXPECT_EQ(sink_b->stats(0).duplicates, 0u);
  EXPECT_EQ(sink_c->stats(0).duplicates, 0u);
}

TEST(EngineBasic, SnapshotShowsLinksAndApps) {
  Node a = make_node();
  Node b = make_node();
  a.engine->register_app(kApp,
                         std::make_shared<BackToBackSource>(kPayload, 50));
  b.engine->register_app(kApp, std::make_shared<SinkApp>());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(b.engine->start());
  a.relay->add_child(kApp, b.engine->self());
  b.relay->set_consume(kApp, true);
  a.engine->deploy_source(kApp);
  a.engine->join_app(kApp);

  ASSERT_TRUE(wait_until([&] {
    const auto snap = a.engine->snapshot();
    return !snap.links.empty() && snap.links[0].down.total_msgs >= 50;
  }));
  const auto snap = a.engine->snapshot();
  ASSERT_EQ(snap.links.size(), 1u);
  EXPECT_EQ(snap.links[0].peer, b.engine->self());
  EXPECT_EQ(snap.source_apps, std::vector<u32>{kApp});
  EXPECT_EQ(snap.joined_apps, std::vector<u32>{kApp});
  EXPECT_GT(snap.links[0].down.total_bytes, 50u * kPayload);
}

TEST(EngineBasic, NodeUplinkCapThrottlesGoodput) {
  EngineConfig capped;
  capped.bandwidth.node_up = 100e3;  // 100 KB/s
  Node a = make_node(capped);
  Node b = make_node();
  auto sink = std::make_shared<SinkApp>();
  a.engine->register_app(kApp, std::make_shared<BackToBackSource>(5000));
  b.engine->register_app(kApp, sink);
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(b.engine->start());
  a.relay->add_child(kApp, b.engine->self());
  b.relay->set_consume(kApp, true);
  a.engine->deploy_source(kApp);

  sleep_for(seconds(2.0));
  a.engine->terminate_source(kApp);
  const double goodput = sink->mean_goodput();
  // Payload goodput must be near (and never above) the 100 KB/s wire cap.
  EXPECT_GT(goodput, 60e3);
  EXPECT_LT(goodput, 110e3);
}

TEST(EngineBasic, RuntimeBandwidthChangeTakesEffect) {
  Node a = make_node();
  Node b = make_node();
  auto sink = std::make_shared<SinkApp>();
  a.engine->register_app(kApp, std::make_shared<BackToBackSource>(5000));
  b.engine->register_app(kApp, sink);
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(b.engine->start());
  a.relay->add_child(kApp, b.engine->self());
  b.relay->set_consume(kApp, true);
  // Cap before deploying, via the control-message path the observer uses.
  a.engine->post(Msg::control(MsgType::kSetBandwidth, NodeId(), kControlApp,
                              kBwNodeUp, 50000));
  a.engine->deploy_source(kApp);

  sleep_for(seconds(2.0));
  a.engine->terminate_source(kApp);
  const double goodput = sink->mean_goodput();
  EXPECT_GT(goodput, 25e3);
  EXPECT_LT(goodput, 60e3);
}

// Algorithm that arms a timer chain and counts firings.
class TimerAlgorithm : public Algorithm {
 public:
  void on_start() override { engine().set_timer(millis(10), 7); }
  void on_timer(i32 id) override {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.push_back(id);
    if (ids_.size() < 5) engine().set_timer(millis(10), id + 1);
  }
  std::vector<i32> ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<i32> ids_;
};

TEST(EngineBasic, TimersFireInOrder) {
  auto algorithm = std::make_unique<TimerAlgorithm>();
  auto* alg = algorithm.get();
  Engine engine(EngineConfig{}, std::move(algorithm));
  ASSERT_TRUE(engine.start());
  ASSERT_TRUE(wait_until([&] { return alg->ids().size() == 5; }));
  EXPECT_EQ(alg->ids(), (std::vector<i32>{7, 8, 9, 10, 11}));
}

// Algorithm that pings a peer on start and records the measured RTT.
class PingAlgorithm : public Algorithm {
 public:
  void set_target(const NodeId& target) { target_ = target; }
  void on_start() override { engine().set_timer(millis(20), 1); }
  void on_timer(i32) override { ping(target_); }
  void on_pong(const NodeId& peer, Duration rtt) override {
    std::lock_guard<std::mutex> lock(mu_);
    pong_peer_ = peer;
    rtt_ = rtt;
  }
  Duration rtt() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rtt_;
  }
  NodeId pong_peer() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pong_peer_;
  }

 private:
  NodeId target_;
  mutable std::mutex mu_;
  NodeId pong_peer_;
  Duration rtt_ = -1;
};

TEST(EngineBasic, PingPongMeasuresRoundTrip) {
  auto pinger = std::make_unique<PingAlgorithm>();
  auto* ping_alg = pinger.get();
  Node responder = make_node();
  ASSERT_TRUE(responder.engine->start());
  ping_alg->set_target(responder.engine->self());
  Engine engine(EngineConfig{}, std::move(pinger));
  ASSERT_TRUE(engine.start());

  ASSERT_TRUE(wait_until([&] { return ping_alg->rtt() >= 0; }));
  EXPECT_EQ(ping_alg->pong_peer(), responder.engine->self());
  EXPECT_LT(ping_alg->rtt(), seconds(1.0));
}

TEST(EngineBasic, IdleEngineUsesLittleCpu) {
  // §2.4: "we observe that the CPU load is 0.00" without traffic.
  Node n = make_node();
  ASSERT_TRUE(n.engine->start());
  sleep_for(millis(200));
  struct timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  const double before = ts.tv_sec + ts.tv_nsec * 1e-9;
  sleep_for(millis(500));
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  const double used = ts.tv_sec + ts.tv_nsec * 1e-9 - before;
  EXPECT_LT(used, 0.15);  // well under 30% of one core while idle
}

TEST(EngineBasic, TwoHundredIdleEnginesWithOpenLinksUseAlmostNoCpu) {
  // §2.4 at scale: a 200-node chain, every link open (one message has
  // crossed it), then no traffic at all. The whole process — every node
  // and the reactor — must stay under 2% of one core.
  constexpr std::size_t kNodes = 200;
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    // Plain relays: RecordingRelay's bookkeeping would be measured too.
    auto algorithm = std::make_unique<RelayAlgorithm>();
    Node n;
    n.relay = algorithm.get();
    n.engine = std::make_unique<Engine>(EngineConfig{}, std::move(algorithm));
    nodes.push_back(std::move(n));
  }
  nodes.front().engine->register_app(
      kApp, std::make_shared<BackToBackSource>(kPayload, 1));
  auto sink = std::make_shared<SinkApp>(kPayload);
  nodes.back().engine->register_app(kApp, sink);
  nodes.back().relay->set_consume(kApp, true);
  for (auto& n : nodes) ASSERT_TRUE(n.engine->start());
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    nodes[i].relay->add_child(kApp, nodes[i + 1].engine->self());
  }
  nodes.front().engine->deploy_source(kApp);
  ASSERT_TRUE(wait_until([&] { return sink->stats(0).distinct == 1; }));
  // An exhausted but deployed source is still asked for more every 1 ms;
  // withdraw it, so nothing at all is left to do.
  nodes.front().engine->terminate_source(kApp);
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    ASSERT_EQ(nodes[i].engine->snapshot().links.size(), i == 0 ? 1u : 2u);
  }
  sleep_for(millis(300));  // let the last sends and acks settle

  // 2% of one core; sanitizer instrumentation runs the same idle work
  // several times slower (the parent's 200 polling engine threads used
  // ~0.1 s uninstrumented, so the scaled bound still tells them apart).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr double kBudget = 0.1;
#else
  constexpr double kBudget = 0.02;
#endif
  struct timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  const double before = ts.tv_sec + ts.tv_nsec * 1e-9;
  sleep_for(seconds(1.0));
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  const double used = ts.tv_sec + ts.tv_nsec * 1e-9 - before;
  EXPECT_LT(used, kBudget) << "CPU seconds over one idle second";
}

}  // namespace
}  // namespace iov::engine
