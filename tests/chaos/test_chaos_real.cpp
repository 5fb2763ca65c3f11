// RealChaosDriver integration on live engines over loopback TCP: plans
// execute through the observer control plane (kTerminateNode /
// kSeverLink / kSetLoss) and produce the same teardown behaviour the
// simulator shows — the cross-substrate half of the chaos story.
#include <gtest/gtest.h>

#include "apps/sink.h"
#include "apps/source.h"
#include "chaos/fault_plan.h"
#include "chaos/real_driver.h"
#include "chaos/verify.h"
#include "engine/engine.h"
#include "obs/metric_names.h"
#include "observer/observer.h"
#include "../engine/engine_test_util.h"

namespace iov::chaos {
namespace {

using test::RecordingRelay;
using test::wait_until;

constexpr u32 kApp = 1;

struct Chain {
  std::unique_ptr<engine::Engine> a, b, c;
  RecordingRelay* relay_a = nullptr;
  RecordingRelay* relay_b = nullptr;
  RecordingRelay* relay_c = nullptr;
  std::shared_ptr<apps::SinkApp> sink;

  ~Chain() {
    for (auto* e : {a.get(), b.get(), c.get()}) {
      if (e != nullptr) e->stop();
    }
    for (auto* e : {a.get(), b.get(), c.get()}) {
      if (e != nullptr) e->join();
    }
  }
};

// A -> B -> C relay chain of real engines reporting to `obs`, with the
// stream already deployed and flowing.
bool make_chain(observer::Observer& obs, Chain* chain) {
  auto alg_a = std::make_unique<RecordingRelay>();
  auto alg_b = std::make_unique<RecordingRelay>();
  auto alg_c = std::make_unique<RecordingRelay>();
  chain->relay_a = alg_a.get();
  chain->relay_b = alg_b.get();
  chain->relay_c = alg_c.get();
  engine::EngineConfig config;
  config.observer = obs.address();
  chain->a = std::make_unique<engine::Engine>(config, std::move(alg_a));
  chain->b = std::make_unique<engine::Engine>(config, std::move(alg_b));
  chain->c = std::make_unique<engine::Engine>(config, std::move(alg_c));
  chain->sink = std::make_shared<apps::SinkApp>();
  chain->a->register_app(kApp,
                         std::make_shared<apps::BackToBackSource>(2000));
  chain->c->register_app(kApp, chain->sink);
  if (!chain->a->start() || !chain->b->start() || !chain->c->start()) {
    return false;
  }
  chain->relay_a->add_child(kApp, chain->b->self());
  chain->relay_b->add_child(kApp, chain->c->self());
  chain->relay_c->set_consume(kApp, true);
  chain->a->deploy_source(kApp);
  // Engines dial the observer asynchronously on their reactor worker, so
  // data can flow before the observer has registered a node; observer
  // commands need every node's connection.
  return wait_until([&] { return chain->sink->stats(0).bytes > 10000; },
                    seconds(10.0)) &&
         wait_until([&] { return obs.nodes().size() == 3; }, seconds(10.0));
}

TEST(ChaosReal, KillMidStreamTearsDownDownstreamSession) {
  observer::Observer obs{observer::ObserverConfig{}};
  ASSERT_TRUE(obs.start());
  {
    Chain chain;
    ASSERT_TRUE(make_chain(obs, &chain));

    FaultPlan plan;
    plan.kill(millis(50), "B");
    RealChaosDriver driver(obs, plan, Binding{{"B", chain.b->self()}});
    driver.run();
    EXPECT_NE(driver.trace_text().find("kill B"), std::string::npos);
    EXPECT_NE(driver.trace_text().find(" ok"), std::string::npos)
        << driver.trace_text();

    // B's engine shuts down; C notices the broken upstream and tears the
    // session down (kBrokenSource Domino at the relay layer).
    const bool recovered = driver.await_recovery(
        [&] {
          return !chain.b->running() &&
                 chain.relay_c->count(MsgType::kBrokenLink) +
                         chain.relay_c->count(MsgType::kBrokenSource) >
                     0;
        },
        millis(50), seconds(10.0));
    EXPECT_TRUE(recovered);

    // The flow actually stopped: bytes stop growing once queues drain.
    EXPECT_TRUE(test::wait_stable<u64>(
                    [&] { return chain.sink->stats(0).bytes; })
                    .has_value());

    const auto snapshot = obs.metrics().snapshot();
    EXPECT_EQ(counter_value(snapshot, obs::names::kChaosFaultsInjectedTotal,
                            {{"kind", "kill"}}),
              1.0);
  }
  obs.stop();
  obs.join();
}

TEST(ChaosReal, SeverBreaksTheLinkLikeACrash) {
  observer::Observer obs{observer::ObserverConfig{}};
  ASSERT_TRUE(obs.start());
  {
    Chain chain;
    ASSERT_TRUE(make_chain(obs, &chain));

    FaultPlan plan;
    plan.sever(millis(50), "B", "A");
    RealChaosDriver driver(
        obs, plan,
        Binding{{"A", chain.a->self()}, {"B", chain.b->self()}});
    driver.run();

    // B drops its link to A as if it had failed: B sees kBrokenLink and
    // the Domino reaches C; all three engines stay up.
    EXPECT_TRUE(wait_until(
        [&] {
          return chain.relay_b->saw(MsgType::kBrokenLink, chain.a->self());
        },
        seconds(10.0)));
    EXPECT_TRUE(wait_until(
        [&] {
          return chain.relay_c->count(MsgType::kBrokenLink) +
                     chain.relay_c->count(MsgType::kBrokenSource) >
                 0;
        },
        seconds(10.0)));
    EXPECT_TRUE(chain.a->running());
    EXPECT_TRUE(chain.b->running());
    EXPECT_TRUE(chain.c->running());
  }
  obs.stop();
  obs.join();
}

TEST(ChaosReal, LossInjectionDropsAndRecovers) {
  observer::Observer obs{observer::ObserverConfig{}};
  ASSERT_TRUE(obs.start());
  {
    Chain chain;
    ASSERT_TRUE(make_chain(obs, &chain));

    // Full loss on A -> B stalls the sink; resetting to 0 revives it.
    // Wait for the in-flight queues to drain and the byte count to go
    // quiet rather than guessing a drain time.
    ASSERT_TRUE(obs.set_loss(chain.a->self(), chain.b->self(), 1.0));
    const auto settled = test::wait_stable<u64>(
        [&] { return chain.sink->stats(0).bytes; });
    ASSERT_TRUE(settled.has_value()) << "sink kept streaming under 100% loss";
    const u64 still = *settled;

    ASSERT_TRUE(obs.set_loss(chain.a->self(), chain.b->self(), 0.0));
    EXPECT_TRUE(wait_until(
        [&] { return chain.sink->stats(0).bytes > still + 100000; },
        seconds(10.0)));
  }
  obs.stop();
  obs.join();
}

}  // namespace
}  // namespace iov::chaos
