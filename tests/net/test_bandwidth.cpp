// BandwidthEmulator composition: the three scopes of §2.2 (per-node
// total, per-node up/down, per-link) and their interaction.
#include "net/bandwidth.h"

#include <gtest/gtest.h>

namespace iov {
namespace {

const NodeId kPeerA = NodeId::loopback(1001);
const NodeId kPeerB = NodeId::loopback(1002);

// Runs `n` sends of `bytes` through the emulator, advancing a virtual
// clock by each returned wait, and returns the achieved rate in B/s.
double drive_send(BandwidthEmulator& bw, const NodeId& peer,
                  std::size_t bytes, int n) {
  TimePoint now = 0;
  for (int i = 0; i < n; ++i) now += bw.acquire_send(peer, bytes, now);
  return now > 0 ? static_cast<double>(bytes) * n / to_seconds(now) : 1e18;
}

double drive_recv(BandwidthEmulator& bw, const NodeId& peer,
                  std::size_t bytes, int n) {
  TimePoint now = 0;
  for (int i = 0; i < n; ++i) now += bw.acquire_recv(peer, bytes, now);
  return now > 0 ? static_cast<double>(bytes) * n / to_seconds(now) : 1e18;
}

TEST(BandwidthEmulator, UnlimitedByDefault) {
  BandwidthEmulator bw;
  TimePoint now = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(bw.acquire_send(kPeerA, 1 << 20, now), 0);
    EXPECT_EQ(bw.acquire_recv(kPeerA, 1 << 20, now), 0);
  }
}

TEST(BandwidthEmulator, NodeUpLimitsSends) {
  BandwidthEmulator bw;
  bw.set_node_up(100e3);
  EXPECT_NEAR(drive_send(bw, kPeerA, 5000, 200), 100e3, 5e3);
}

TEST(BandwidthEmulator, NodeDownLimitsReceives) {
  BandwidthEmulator bw;
  bw.set_node_down(50e3);
  EXPECT_NEAR(drive_recv(bw, kPeerA, 5000, 100), 50e3, 3e3);
}

TEST(BandwidthEmulator, UpLimitDoesNotAffectRecv) {
  BandwidthEmulator bw;
  bw.set_node_up(10e3);
  TimePoint now = 0;
  EXPECT_EQ(bw.acquire_recv(kPeerA, 1 << 20, now), 0);
}

TEST(BandwidthEmulator, TotalCoversBothDirections) {
  // Per-node *total* bandwidth is shared by sends and receives (§2.2
  // category 1). Alternating both directions must together respect it.
  BandwidthEmulator bw;
  bw.set_node_total(100e3);
  TimePoint now = 0;
  constexpr int kRounds = 100;
  for (int i = 0; i < kRounds; ++i) {
    now += bw.acquire_send(kPeerA, 5000, now);
    now += bw.acquire_recv(kPeerB, 5000, now);
  }
  const double rate = 2.0 * 5000 * kRounds / to_seconds(now);
  EXPECT_NEAR(rate, 100e3, 6e3);
}

TEST(BandwidthEmulator, PerLinkIsolatesPeers) {
  BandwidthEmulator bw;
  bw.set_link_up(kPeerA, 20e3);
  EXPECT_NEAR(drive_send(bw, kPeerA, 5000, 50), 20e3, 2e3);
  // Peer B is untouched by A's link cap.
  TimePoint now = 0;
  EXPECT_EQ(bw.acquire_send(kPeerB, 1 << 20, now), 0);
}

TEST(BandwidthEmulator, MostConstrainedScopeWins) {
  BandwidthEmulator bw;
  bw.set_node_up(100e3);
  bw.set_link_up(kPeerA, 20e3);
  EXPECT_NEAR(drive_send(bw, kPeerA, 5000, 50), 20e3, 2e3);
}

TEST(BandwidthEmulator, LinkLimitRemovable) {
  BandwidthEmulator bw;
  bw.set_link_up(kPeerA, 1000.0);
  bw.set_link_up(kPeerA, 0.0);  // relieve the bottleneck at runtime
  TimePoint now = 0;
  EXPECT_EQ(bw.acquire_send(kPeerA, 1 << 20, now), 0);
}

TEST(BandwidthEmulator, ConfigureAppliesSpec) {
  BandwidthSpec spec;
  spec.node_total = 1e6;
  spec.node_up = 2e5;
  spec.node_down = 3e5;
  BandwidthEmulator bw(spec);
  EXPECT_DOUBLE_EQ(bw.node_total(), 1e6);
  EXPECT_DOUBLE_EQ(bw.node_up(), 2e5);
  EXPECT_DOUBLE_EQ(bw.node_down(), 3e5);
}

TEST(BandwidthEmulator, AsymmetricNode) {
  // DSL-style: fast down, slow up (§2.2 category 3).
  BandwidthEmulator bw;
  bw.set_node_up(10e3);
  bw.set_node_down(100e3);
  EXPECT_NEAR(drive_send(bw, kPeerA, 5000, 40), 10e3, 1e3);
  EXPECT_NEAR(drive_recv(bw, kPeerA, 5000, 100), 100e3, 8e3);
}

// limited() tells links whether the emulator can be skipped: false by
// default, true while any scope has a positive limit, false again once
// every limit is removed.
TEST(BandwidthEmulator, LimitedFollowsEveryScope) {
  BandwidthEmulator bw;
  EXPECT_FALSE(bw.limited());

  bw.set_node_total(1e6);
  EXPECT_TRUE(bw.limited());
  bw.set_node_total(0.0);
  EXPECT_FALSE(bw.limited());

  bw.set_node_up(1e6);
  EXPECT_TRUE(bw.limited());
  bw.set_node_up(0.0);
  EXPECT_FALSE(bw.limited());
  bw.set_node_down(1e6);
  EXPECT_TRUE(bw.limited());
  bw.set_node_down(0.0);
  EXPECT_FALSE(bw.limited());

  bw.set_link_up(kPeerA, 1e6);
  EXPECT_TRUE(bw.limited());
  bw.set_link_down(kPeerB, 1e6);
  bw.set_link_up(kPeerA, 0.0);
  EXPECT_TRUE(bw.limited());  // kPeerB's downlink is still limited
  bw.set_link_down(kPeerB, 0.0);
  EXPECT_FALSE(bw.limited());

  BandwidthSpec spec;
  spec.node_up = 1e6;
  bw.configure(spec);
  EXPECT_TRUE(bw.limited());
  bw.configure(BandwidthSpec{});
  EXPECT_FALSE(bw.limited());
  EXPECT_TRUE(BandwidthEmulator(spec).limited());
}

// A limit that is removed and set again paces exactly like a fresh one:
// the bucket starts from a full burst.
TEST(BandwidthEmulator, ReinstatedLinkLimitStartsFull) {
  BandwidthEmulator reset;
  reset.set_link_up(kPeerA, 10e3);
  EXPECT_GT(drive_send(reset, kPeerA, 5000, 20), 0.0);
  reset.set_link_up(kPeerA, 0.0);
  reset.set_link_up(kPeerA, 10e3);
  BandwidthEmulator fresh;
  fresh.set_link_up(kPeerA, 10e3);
  const TimePoint later = seconds(100.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(reset.acquire_send(kPeerA, 5000, later),
              fresh.acquire_send(kPeerA, 5000, later));
  }
}

}  // namespace
}  // namespace iov
