// Observability integration: a live two-node loopback overlay ships
// metrics-bearing v2 reports that the observer parses, aggregates and
// exports; v1 (metrics-less) reports from old nodes are still accepted;
// the report round-trip histogram closes.
#include "observer/observer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/sink.h"
#include "apps/source.h"
#include "engine/engine.h"
#include "net/framing.h"
#include "obs/metric_names.h"
#include "../engine/engine_test_util.h"
#include "../net/net_test_util.h"

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

Node make_node(const NodeId& observer) {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  EngineConfig config;
  config.observer = observer;
  config.report_interval = millis(100);
  n.engine = std::make_unique<Engine>(config, std::move(algorithm));
  return n;
}

const obs::MetricSample* find_sample(const obs::MetricsSnapshot& snap,
                                     std::string_view name) {
  for (const auto& s : snap.samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(ObserverMetrics, TwoNodeOverlayDeliversMetricsToObserver) {
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

  // b switches real data (a sources it locally), so b's periodic report
  // must eventually carry a non-empty switch-latency histogram.
  ASSERT_TRUE(wait_until([&] {
    const auto info = obs.node(b.engine->self());
    if (!info || !info->last_metrics) return false;
    const auto* s = find_sample(*info->last_metrics,
                                obs::names::kSwitchLatencySeconds);
    return s != nullptr && s->hist.count > 0;
  }));

  const auto snap = *obs.node(b.engine->self())->last_metrics;

  // Per-link counters and queue gauges for the a->b link.
  bool up_bytes_seen = false;
  bool queue_depth_seen = false;
  bool capacity_positive = false;
  for (const auto& s : snap.samples) {
    const bool from_a = std::find(s.labels.begin(), s.labels.end(),
                                  std::make_pair(std::string("peer"),
                                                 a.engine->self().to_string()))
                        != s.labels.end();
    if (!from_a) continue;
    if (s.name == obs::names::kLinkBytesTotal && s.value > 0) {
      up_bytes_seen = true;
    }
    if (s.name == obs::names::kLinkQueueDepth) queue_depth_seen = true;
    if (s.name == obs::names::kLinkQueueCapacity && s.value > 0) {
      capacity_positive = true;
    }
  }
  EXPECT_TRUE(up_bytes_seen);
  EXPECT_TRUE(queue_depth_seen);
  EXPECT_TRUE(capacity_positive);

  // The aggregate exports label every sample with its node.
  const std::string prom = obs.prometheus_text();
  EXPECT_NE(prom.find("# TYPE iov_switch_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("node=\"" + b.engine->self().to_string() + "\""),
            std::string::npos);
  EXPECT_NE(prom.find("node=\"observer\""), std::string::npos);
  EXPECT_NE(obs.metrics_json().find("iov_link_bytes_total"),
            std::string::npos);
  EXPECT_NE(obs.metrics_csv().find("iov_observer_reports_total"),
            std::string::npos);

  ASSERT_TRUE(obs.terminate_source(a.engine->self(), kApp));
}

TEST(ObserverMetrics, RequestReportClosesRttHistogram) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());
  Node a = make_node(obs.address());
  ASSERT_TRUE(a.engine->start());
  ASSERT_TRUE(wait_until([&] { return obs.alive_count() == 1; }));
  ASSERT_TRUE(obs.request_report(a.engine->self()));
  ASSERT_TRUE(wait_until([&] {
    const auto snap = obs.metrics().snapshot();
    const auto* s = find_sample(snap, obs::names::kObserverReportRttSeconds);
    return s != nullptr && s->hist.count > 0;
  }));
}

TEST(ObserverMetrics, V1ReportWithoutMetricsStillAccepted) {
  Observer obs(ObserverConfig{});
  ASSERT_TRUE(obs.start());

  // Impersonate an old node: raw control connection, v1 report payload
  // (no ver=, no metrics= lines).
  const NodeId self = NodeId::loopback(45678);
  auto conn = TcpConn::connect(obs.address(), seconds(1.0));
  ASSERT_TRUE(conn.has_value());
  ASSERT_TRUE(test::write_hello(*conn, Hello{ConnKind::kControl, self}));
  const std::string v1 =
      "node=" + self.to_string() + "\nuptime=7\nup=\ndown=\nsrc=\n"
      "joined=\nalg=old node\n";
  ASSERT_TRUE(test::write_frame(
      *conn, Msg::text_msg(MsgType::kReport, self, kControlApp, v1)));

  ASSERT_TRUE(wait_until([&] {
    const auto info = obs.node(self);
    return info && info->last_report.has_value();
  }));
  const auto info = obs.node(self);
  EXPECT_EQ(info->last_report->version, 1);
  EXPECT_EQ(info->last_report->algorithm_status, "old node");
  EXPECT_FALSE(info->last_metrics.has_value());

  // Nothing about a v1 report is malformed.
  const auto snap = obs.metrics().snapshot();
  const auto* malformed =
      find_sample(snap, obs::names::kObserverMalformedReportsTotal);
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value, 0.0);
}

}  // namespace
}  // namespace iov::observer
