// Advanced real-engine integration: the hold mechanism driving GF(2^8)
// network coding over actual threads and TCP, persistent-connection
// reuse for bidirectional traffic, weighted round-robin tuning, the
// observer-style kRequest path, multi-app multiplexing on one link, and
// trace emission.
#include <gtest/gtest.h>

#include "apps/sink.h"
#include "apps/source.h"
#include "coding/coding_algorithm.h"
#include "engine/engine.h"
#include "engine_test_util.h"
#include "net/reactor/reactor.h"

namespace iov::engine {
namespace {

using apps::BackToBackSource;
using apps::SinkApp;
using coding::CodingAlgorithm;
using test::RecordingRelay;
using test::wait_until;

constexpr u32 kApp = 1;
constexpr std::size_t kPayload = 1000;

TEST(EngineAdvanced, NetworkCodingOverRealEngines) {
  // A splits stream 0 -> B and stream 1 -> D; B relays `a` to R and D;
  // D holds pairs and codes 7a+19b toward R; R solves for b. The full
  // §3.2 machinery — hold disposition, n-to-1 merge, Gaussian decode —
  // over real threads and loopback TCP.
  struct CodedNode {
    std::unique_ptr<Engine> engine;
    CodingAlgorithm* alg = nullptr;
  };
  const auto make = [] {
    auto algorithm = std::make_unique<CodingAlgorithm>();
    CodedNode n;
    n.alg = algorithm.get();
    n.engine = std::make_unique<Engine>(EngineConfig{}, std::move(algorithm));
    return n;
  };
  CodedNode a = make(), b = make(), d = make(), r = make();
  constexpr u64 kMsgs = 60;
  a.engine->register_app(kApp,
                         std::make_shared<BackToBackSource>(kPayload, kMsgs));
  auto sink = std::make_shared<SinkApp>(kPayload);
  r.engine->register_app(kApp, sink);
  for (auto* n : {&a, &b, &d, &r}) ASSERT_TRUE(n->engine->start());

  a.alg->set_source_split(kApp, {b.engine->self(), d.engine->self()});
  b.alg->add_relay(kApp, r.engine->self());
  b.alg->add_relay(kApp, d.engine->self());
  d.alg->set_coder(kApp, 2, {7, 19}, {r.engine->self()});
  r.alg->set_decoder(kApp, 2, kPayload);
  a.engine->deploy_source(kApp);

  ASSERT_TRUE(wait_until([&] {
    return sink->stats(RealClock::instance().now()).distinct == kMsgs;
  }));
  EXPECT_EQ(sink->stats(0).corrupt, 0u);
}

TEST(EngineAdvanced, PersistentConnectionCarriesBothDirections) {
  // A sources app 1 toward B; B sources app 2 toward A. Per §2.2
  // ("persistent connections ... all the messages between two nodes are
  // carried with the same connection") each node must end up with
  // exactly one link.
  auto alg_a = std::make_unique<RecordingRelay>();
  auto alg_b = std::make_unique<RecordingRelay>();
  auto* relay_a = alg_a.get();
  auto* relay_b = alg_b.get();
  Engine a(EngineConfig{}, std::move(alg_a));
  Engine b(EngineConfig{}, std::move(alg_b));
  auto sink_a = std::make_shared<SinkApp>();
  auto sink_b = std::make_shared<SinkApp>();
  a.register_app(1, std::make_shared<BackToBackSource>(kPayload, 100));
  a.register_app(2, sink_a);
  b.register_app(2, std::make_shared<BackToBackSource>(kPayload, 100));
  b.register_app(1, sink_b);
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  relay_a->add_child(1, b.self());
  relay_a->set_consume(2, true);
  relay_b->add_child(2, a.self());
  relay_b->set_consume(1, true);
  a.deploy_source(1);
  b.deploy_source(2);

  ASSERT_TRUE(wait_until([&] {
    return sink_a->stats(0).distinct == 100 &&
           sink_b->stats(0).distinct == 100;
  })) << sink_a->stats(0).distinct << " and " << sink_b->stats(0).distinct
      << " of 100 arrived; broken links seen: "
      << relay_a->count(MsgType::kBrokenLink) << " and "
      << relay_b->count(MsgType::kBrokenLink);
  EXPECT_EQ(a.snapshot().links.size(), 1u);
  EXPECT_EQ(b.snapshot().links.size(), 1u);
  // The single link at A carried app 1 out and app 2 in.
  const auto snap = a.snapshot();
  EXPECT_GT(snap.links[0].down.total_bytes, 100 * kPayload);
  EXPECT_GT(snap.links[0].up.total_bytes, 100 * kPayload);
}

/// Counts in-order deliveries of one app and flags any gap, duplicate or
/// reordering (the engine numbers a source's messages 0, 1, 2, ...).
class OrderedSink final : public apps::SinkApp {
 public:
  void deliver(const MsgPtr& m, TimePoint now) override {
    if (m->seq() != next_.load(std::memory_order_relaxed)) {
      broken_.store(true, std::memory_order_relaxed);
    }
    next_.store(m->seq() + 1, std::memory_order_release);
    SinkApp::deliver(m, now);
  }
  u64 in_order() const { return next_.load(std::memory_order_acquire); }
  bool broken() const { return broken_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> next_{0};
  std::atomic<bool> broken_{false};
};

TEST(EngineAdvanced, CrossingDialLosesAndReordersNothing) {
  // Both nodes live on one reactor worker and start streaming to each
  // other from one task, so both dial before either accepts: a forced
  // crossing every iteration. The connection dialed by the smaller node
  // id survives; everything queued or already written on the other one
  // must still arrive, exactly once and in order. The first send-buffer
  // load of 64 KB messages overflows the socket buffers, so the dropped
  // dial still holds staged frames, one of them part-written, when the
  // crossing is resolved.
  constexpr u64 kMsgs = 40;
  constexpr std::size_t kBig = 64 * 1024;
  const int workers = reactor::Reactor::shared().threads();
  for (int round = 0; round < 100; ++round) {
    auto alg_a = std::make_unique<RecordingRelay>();
    auto alg_b = std::make_unique<RecordingRelay>();
    RecordingRelay* relay_a = alg_a.get();
    RecordingRelay* relay_b = alg_b.get();
    Engine a(EngineConfig{}, std::move(alg_a));
    Engine b(EngineConfig{}, std::move(alg_b));
    auto sink_a = std::make_shared<OrderedSink>();
    auto sink_b = std::make_shared<OrderedSink>();
    a.register_app(1, std::make_shared<BackToBackSource>(kBig, kMsgs));
    a.register_app(2, sink_a);
    b.register_app(2, std::make_shared<BackToBackSource>(kBig, kMsgs));
    b.register_app(1, sink_b);
    relay_a->set_consume(2, true);
    relay_b->set_consume(1, true);

    // Placement is round-robin: fillers put b on a's worker.
    ASSERT_TRUE(a.start());
    std::vector<std::unique_ptr<Engine>> fillers;
    for (int i = 1; i < workers; ++i) {
      fillers.push_back(std::make_unique<Engine>(
          EngineConfig{}, std::make_unique<RecordingRelay>()));
      ASSERT_TRUE(fillers.back()->start());
    }
    ASSERT_TRUE(b.start());
    ASSERT_EQ(a.worker(), b.worker());
    a.worker()->call([&] {
      relay_a->add_child(1, b.self());
      relay_b->add_child(2, a.self());
      a.deploy_source(1);
      b.deploy_source(2);
    });

    ASSERT_TRUE(wait_until([&] {
      return (sink_a->in_order() == kMsgs && sink_b->in_order() == kMsgs) ||
             sink_a->broken() || sink_b->broken();
    })) << "round " << round << ": " << sink_a->in_order() << " and "
        << sink_b->in_order() << " of " << kMsgs << " arrived";
    ASSERT_FALSE(sink_a->broken()) << "round " << round;
    ASSERT_FALSE(sink_b->broken()) << "round " << round;
    EXPECT_EQ(sink_a->stats(0).duplicates + sink_b->stats(0).duplicates, 0u);
    EXPECT_EQ(sink_a->stats(0).corrupt + sink_b->stats(0).corrupt, 0u);
    EXPECT_EQ(a.snapshot().links.size(), 1u);
    EXPECT_EQ(b.snapshot().links.size(), 1u);
  }
}

TEST(EngineAdvanced, SwitchWeightsKeepCorrectnessUnderSaturation) {
  // Two back-to-back sources saturate relay R's two input slots while
  // A1's slot carries a non-default round-robin weight. The throughput
  // *ratio* on a single-core host is dominated by TCP feedback and
  // scheduling (both directions observed run to run), so this test pins
  // down what must hold regardless: both apps keep flowing, nothing is
  // lost or duplicated, and the weight plumbing itself works.
  auto make_relay = [](EngineConfig config = {}) {
    auto algorithm = std::make_unique<RecordingRelay>();
    auto* raw = algorithm.get();
    auto engine = std::make_unique<Engine>(config, std::move(algorithm));
    return std::make_pair(std::move(engine), raw);
  };
  auto [a1, relay_a1] = make_relay();
  auto [a2, relay_a2] = make_relay();
  EngineConfig deep;  // deep input buffers keep both slots saturated
  deep.recv_buffer_msgs = 64;
  auto [r, relay_r] = make_relay(deep);
  auto [s, relay_s] = make_relay();
  auto sink1 = std::make_shared<SinkApp>();
  auto sink2 = std::make_shared<SinkApp>();
  a1->register_app(1, std::make_shared<BackToBackSource>(kPayload));
  a2->register_app(2, std::make_shared<BackToBackSource>(kPayload));
  s->register_app(1, sink1);
  s->register_app(2, sink2);
  ASSERT_TRUE(a1->start());
  ASSERT_TRUE(a2->start());
  ASSERT_TRUE(r->start());
  ASSERT_TRUE(s->start());
  relay_a1->add_child(1, r->self());
  relay_a2->add_child(2, r->self());
  relay_r->add_child(1, s->self());
  relay_r->add_child(2, s->self());
  relay_s->set_consume(1, true);
  relay_s->set_consume(2, true);
  r->set_switch_weight(a1->self(), 4);
  a1->deploy_source(1);
  a2->deploy_source(2);

  // Poll for both flows clearing the bar instead of betting on one
  // fixed-length nap being enough on a loaded machine.
  EXPECT_TRUE(test::wait_until(
      [&] { return sink1->stats(0).msgs > 100 && sink2->stats(0).msgs > 100; },
      seconds(10.0)));
  a1->stop();
  a2->stop();
  const auto s1 = sink1->stats(0);
  const auto s2 = sink2->stats(0);
  EXPECT_GT(s1.msgs, 100u);
  EXPECT_GT(s2.msgs, 100u);
  EXPECT_EQ(s1.duplicates, 0u);
  EXPECT_EQ(s2.duplicates, 0u);
  a1->join();
  a2->join();
}

TEST(EngineAdvanced, RequestProducesImmediateReport) {
  // kRequest via post() exercises the observer's on-demand status pull.
  auto algorithm = std::make_unique<RecordingRelay>();
  auto* relay = algorithm.get();
  Engine engine(EngineConfig{}, std::move(algorithm));
  ASSERT_TRUE(engine.start());
  engine.post(Msg::control(MsgType::kRequest, NodeId(), kControlApp));
  // The algorithm also sees the request (Table 2 lists it).
  ASSERT_TRUE(wait_until(
      [&] { return relay->count(MsgType::kRequest) == 1; }));
}

TEST(EngineAdvanced, ThroughputReportsReachAlgorithm) {
  auto alg_a = std::make_unique<RecordingRelay>();
  auto* relay_a = alg_a.get();
  EngineConfig fast_reports;
  fast_reports.throughput_interval = millis(100);
  Engine a(fast_reports, std::move(alg_a));
  auto alg_b = std::make_unique<RecordingRelay>();
  Engine b(EngineConfig{}, std::move(alg_b));
  a.register_app(kApp, std::make_shared<BackToBackSource>(kPayload, 500));
  b.register_app(kApp, std::make_shared<SinkApp>());
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  relay_a->add_child(kApp, b.self());
  a.deploy_source(kApp);
  ASSERT_TRUE(wait_until([&] {
    return relay_a->count(MsgType::kDownThroughput) >= 3;
  }));
  // The recorded rate eventually reflects real traffic.
  ASSERT_TRUE(wait_until([&] {
    for (const auto& e : relay_a->events()) {
      if (e.type == MsgType::kDownThroughput && e.p0 > 1000) return true;
    }
    return false;
  }));
}

}  // namespace
}  // namespace iov::engine
