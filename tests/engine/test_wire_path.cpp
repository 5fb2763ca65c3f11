// Large-frame wire path over real engines and loopback TCP (DESIGN.md
// §8): the pooled receive path, verified end to end with payload
// integrity plus the slab-pool metrics that prove it actually ran.
#include <gtest/gtest.h>

#include <memory>

#include "apps/sink.h"
#include "apps/source.h"
#include "chaos/verify.h"
#include "engine/engine.h"
#include "engine_test_util.h"
#include "obs/metric_names.h"

namespace iov::engine {
namespace {

using apps::BackToBackSource;
using apps::SinkApp;
using chaos::counter_value;
using test::RecordingRelay;
using test::wait_until;

constexpr u32 kApp = 1;
// Larger than FrameReader's 64 KB chunk: every data frame takes the
// large-frame path.
constexpr std::size_t kBigPayload = 100 * 1000;
constexpr u64 kMsgs = 30;

struct Node {
  std::unique_ptr<Engine> engine;
  RecordingRelay* relay = nullptr;
};

Node make_node() {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  n.engine = std::make_unique<Engine>(EngineConfig{}, std::move(algorithm));
  return n;
}

// Streams kMsgs big messages A -> B and returns B's sink for integrity
// checks. Caller inspects each engine's metrics afterwards.
std::shared_ptr<SinkApp> stream_big(Node& a, Node& b) {
  a.engine->register_app(kApp,
                         std::make_shared<BackToBackSource>(kBigPayload,
                                                            kMsgs));
  auto sink = std::make_shared<SinkApp>(kBigPayload);
  b.engine->register_app(kApp, sink);
  EXPECT_TRUE(a.engine->start());
  EXPECT_TRUE(b.engine->start());
  a.relay->add_child(kApp, b.engine->self());
  b.relay->set_consume(kApp, true);
  a.engine->deploy_source(kApp);
  EXPECT_TRUE(wait_until([&] {
    return sink->stats(RealClock::instance().now()).distinct == kMsgs;
  }));
  return sink;
}

TEST(WirePath, PooledLargeFramesDeliverIntactWithHighHitRate) {
  Node a = make_node();
  Node b = make_node();
  auto sink = stream_big(a, b);
  EXPECT_EQ(sink->stats(0).corrupt, 0u);

  const auto snap = b.engine->metrics().snapshot();
  const double hits = counter_value(snap, obs::names::kPoolSlabAcquiresTotal,
                                    {{"result", "hit"}});
  const double misses = counter_value(snap, obs::names::kPoolSlabAcquiresTotal,
                                      {{"result", "miss"}});
  // Every large data frame drew a slab...
  EXPECT_GE(hits + misses, static_cast<double>(kMsgs));
  // ...and the pool recycled nearly all of them: misses are bounded by
  // the number of slabs live at once (receive buffer depth + in flight),
  // not by the message count.
  EXPECT_LE(misses, 12.0);
  EXPECT_GE(hits, static_cast<double>(kMsgs) - 12.0);
}

}  // namespace
}  // namespace iov::engine
