// Observer integration: bootstrap replies with alive subsets, report
// collection, control-panel commands reaching nodes, trace logging, the
// topology dump, and report relaying through the proxy.
#include "observer/observer.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "apps/sink.h"
#include "apps/source.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "observer/proxy.h"
#include "../engine/engine_test_util.h"

namespace iov::observer {
namespace {

using engine::Engine;
using engine::EngineConfig;
using test::RecordingRelay;
using test::wait_until;

constexpr u32 kApp = 1;

struct Node {
  std::unique_ptr<Engine> engine;
  RecordingRelay* relay = nullptr;
};

Node make_node(const NodeId& observer, const NodeId& proxy = NodeId()) {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  EngineConfig config;
  config.observer = observer;
  config.report_proxy = proxy;
  config.report_interval = millis(100);
  // Small locked socket buffers (the fig06 "2004-era" setting): keeps
  // in-flight kernel inventory tiny so terminate-then-count assertions
  // settle fast, and locked buffers are exempt from the memory-pressure
  // window clamp that can stall saturated auto-tuned loopback links
  // (see EngineConfig::socket_buffer_bytes).
  config.socket_buffer_bytes = 32 * 1024;
  n.engine = std::make_unique<Engine>(config, std::move(algorithm));
  return n;
}

TEST(Observer, BootstrapRegistersNodes) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  Node b = make_node(obs.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(b.engine->start());
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 2; }));
  const auto info = obs.node(a.engine->self());
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->alive);
}

TEST(Observer, BootstrapReplyPopulatesKnownHosts) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 1; }));
  // The second node's bootstrap reply must name the first.
  Node b = make_node(obs.address());
  ASSERT_TRUE(b.engine->start());
  ASSERT_TRUE(wait_until([&] {
    return b.relay->knows(a.engine->self());
  }));
}

TEST(Observer, BootstrapSubsetSizeHonored) {
  ObserverConfig config;
  config.bootstrap_subset = 2;
  Observer obs(config);
  ASSERT_TRUE(obs.start());
  std::vector<Node> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(make_node(obs.address()));
    ASSERT_TRUE(nodes.back().engine->start());
    ASSERT_TRUE(wait_until(
        [&] { return obs.alive_count() == static_cast<std::size_t>(i + 1); }));
  }
  // The last node bootstrapped against 4 alive peers but may learn at
  // most the configured 2 from the reply.
  ASSERT_TRUE(wait_until(
      [&] { return !nodes.back().relay->hosts_snapshot().empty(); }));
  EXPECT_LE(nodes.back().relay->hosts_snapshot().size(), 2u);
}

TEST(Observer, CollectsPeriodicReports) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] {
    const auto info = obs.node(a.engine->self());
    return info && info->last_report.has_value();
  }));
  EXPECT_EQ(obs.node(a.engine->self())->last_report->node, a.engine->self());
}

TEST(Observer, ControlPanelDeploysAndTerminates) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  Node b = make_node(obs.address());
  auto sink = std::make_shared<apps::SinkApp>();
  a.engine->register_app(kApp, std::make_shared<apps::BackToBackSource>(1000));
  b.engine->register_app(kApp, sink);
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(b.engine->start());
  a.relay->add_child(kApp, b.engine->self());
  b.relay->set_consume(kApp, true);
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 2; }));

  ASSERT_TRUE(obs.deploy(a.engine->self(), kApp));
  ASSERT_TRUE(wait_until([&] { return sink->stats(0).msgs > 20; }));

  ASSERT_TRUE(obs.terminate_source(a.engine->self(), kApp));
  // The stream freezes once the terminate lands and queues drain: wait
  // for the delivery count to go quiet instead of napping a fixed time.
  EXPECT_TRUE(test::wait_stable<u64>([&] { return sink->stats(0).msgs; },
                                     millis(300))
                  .has_value());
}

TEST(Observer, SetBandwidthThrottlesNode) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  Node b = make_node(obs.address());
  auto sink = std::make_shared<apps::SinkApp>();
  a.engine->register_app(kApp, std::make_shared<apps::BackToBackSource>(5000));
  b.engine->register_app(kApp, sink);
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(b.engine->start());
  a.relay->add_child(kApp, b.engine->self());
  b.relay->set_consume(kApp, true);
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 2; }));
  ASSERT_TRUE(obs.set_bandwidth(a.engine->self(), engine::kBwNodeUp, 50e3));
  ASSERT_TRUE(obs.deploy(a.engine->self(), kApp));

  sleep_for(seconds(2.0));
  ASSERT_TRUE(obs.terminate_source(a.engine->self(), kApp));
  const double goodput = sink->mean_goodput();
  EXPECT_GT(goodput, 25e3);
  EXPECT_LT(goodput, 60e3);
}

TEST(Observer, TerminateNodeMarksItDead) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 1; }));
  ASSERT_TRUE(obs.terminate_node(a.engine->self()));
  ASSERT_TRUE(wait_until([&] { return !a.engine->running(); }));
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 0; }));
  a.engine->join();
}

// Algorithm that emits one trace line when started.
class TracingAlgorithm : public Algorithm {
 public:
  void on_start() override { engine().set_timer(millis(50), 1); }
  void on_timer(i32) override { engine().trace("hello from the node"); }
};

TEST(Observer, TraceRecordsArriveCentrally) {
  ObserverConfig config;
  Observer obs(config);
  ASSERT_TRUE(obs.start());
  EngineConfig node_config;
  node_config.observer = obs.address();
  Engine engine(node_config, std::make_unique<TracingAlgorithm>());
  ASSERT_TRUE(engine.start());
  ASSERT_TRUE(wait_until([&] { return !obs.traces().empty(); }));
  const auto traces = obs.traces();
  EXPECT_EQ(traces[0].node, engine.self());
  EXPECT_EQ(traces[0].text, "hello from the node");
}

TEST(Observer, TraceLogAppendsOneLinePerRecord) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("iov_observer_trace_test_" + std::to_string(::getpid()) + ".log");
  {
    std::ofstream seed(path, std::ios::trunc);
    seed << "earlier run\n";
  }
  ObserverConfig config;
  config.trace_path = path.string();
  Observer obs(config);
  ASSERT_TRUE(obs.start());
  EngineConfig node_config;
  node_config.observer = obs.address();
  Engine engine(node_config, std::make_unique<TracingAlgorithm>());
  ASSERT_TRUE(engine.start());
  ASSERT_TRUE(wait_until([&] { return !obs.traces().empty(); }));
  const TraceRecord record = obs.traces()[0];
  engine.stop();
  engine.join();
  obs.stop();

  // The file keeps what it held and gains one "[<seconds>] <node> <text>"
  // line per record, written as the record arrives.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "earlier run");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, strf("[%12.6f] %s ", to_seconds(record.at),
                       engine.self().to_string().c_str()) +
                      "hello from the node");
  EXPECT_FALSE(std::getline(in, line)) << line;
  std::filesystem::remove(path);
}

TEST(Observer, TopologyDotListsEdges) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  Node b = make_node(obs.address());
  a.engine->register_app(kApp,
                         std::make_shared<apps::BackToBackSource>(1000));
  b.engine->register_app(kApp, std::make_shared<apps::SinkApp>());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(b.engine->start());
  a.relay->add_child(kApp, b.engine->self());
  b.relay->set_consume(kApp, true);
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 2; }));
  ASSERT_TRUE(obs.deploy(a.engine->self(), kApp));
  ASSERT_TRUE(wait_until([&] {
    return obs.topology_dot().find("->") != std::string::npos;
  }));
  const auto dot = obs.topology_dot();
  EXPECT_NE(dot.find(a.engine->self().to_string()), std::string::npos);
  EXPECT_NE(dot.find(b.engine->self().to_string()), std::string::npos);
}

TEST(Observer, ProxyRelaysReports) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  ProxyConfig proxy_config;
  proxy_config.observer = obs.address();
  Proxy proxy(proxy_config);
  ASSERT_TRUE(proxy.start());

  Node a = make_node(obs.address(), proxy.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] {
    const auto info = obs.node(a.engine->self());
    return info && info->last_report.has_value();
  }));
  // The proxy counts a report only after forwarding it, so the observer
  // can hold the report a moment before relayed() moves.
  EXPECT_TRUE(wait_until([&] { return proxy.relayed() > 0; }));
}

}  // namespace
}  // namespace iov::observer
