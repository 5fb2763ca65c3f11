#include "net/throughput.h"

#include <gtest/gtest.h>

namespace iov {
namespace {

TEST(ThroughputMeter, EmptyMeterReadsZero) {
  ThroughputMeter meter;
  EXPECT_EQ(meter.rate(seconds(1.0)), 0.0);
  EXPECT_EQ(meter.total_bytes(), 0u);
  EXPECT_EQ(meter.total_msgs(), 0u);
}

TEST(ThroughputMeter, SteadyRateMeasuredAccurately) {
  ThroughputMeter meter(seconds(2.0), 20);
  // 5 KB every 50 ms = 100 KB/s for 2 full windows.
  for (int i = 0; i < 80; ++i) {
    meter.record(5000, millis(50) * i);
  }
  EXPECT_NEAR(meter.rate(millis(50) * 80), 100e3, 10e3);
}

TEST(ThroughputMeter, RateDecaysAfterTrafficStops) {
  ThroughputMeter meter(seconds(1.0), 10);
  for (int i = 0; i < 20; ++i) meter.record(1000, millis(50) * i);
  const double live = meter.rate(seconds(1.0));
  EXPECT_GT(live, 0.0);
  // 2 seconds of silence: the window has fully rolled past all samples.
  EXPECT_EQ(meter.rate(seconds(3.0)), 0.0);
}

TEST(ThroughputMeter, TotalsAreCumulative) {
  ThroughputMeter meter;
  meter.record(100, 0);
  meter.record(200, millis(10));
  meter.record(300, millis(20));
  EXPECT_EQ(meter.total_bytes(), 600u);
  EXPECT_EQ(meter.total_msgs(), 3u);
}

TEST(ThroughputMeter, AbsorbCarriesTotalsAndWindowedTraffic) {
  // Two meters of one peer over the same second (a connection taking
  // over from another) read like one meter that saw all the traffic.
  ThroughputMeter older(seconds(1.0), 10);
  ThroughputMeter newer(seconds(1.0), 10);
  ThroughputMeter both(seconds(1.0), 10);
  for (int i = 0; i < 10; ++i) {
    older.record(1000, millis(100) * i);
    both.record(1000, millis(100) * i);
  }
  older.record_loss(70);
  both.record_loss(70);
  for (int i = 10; i < 15; ++i) {
    newer.record(500, millis(100) * i);
    both.record(500, millis(100) * i);
  }
  newer.absorb(older);
  EXPECT_EQ(newer.total_bytes(), both.total_bytes());
  EXPECT_EQ(newer.total_msgs(), both.total_msgs());
  EXPECT_EQ(newer.lost_bytes(), 70u);
  EXPECT_EQ(newer.lost_msgs(), 1u);
  EXPECT_EQ(newer.idle_for(seconds(2.0)), both.idle_for(seconds(2.0)));
  EXPECT_DOUBLE_EQ(newer.rate(millis(1450)), both.rate(millis(1450)));

  // A fresh meter absorbing an old one continues its window.
  ThroughputMeter fresh(seconds(1.0), 10);
  fresh.absorb(older);
  EXPECT_DOUBLE_EQ(fresh.rate(millis(950)), older.rate(millis(950)));
}

TEST(ThroughputMeter, LossAccounting) {
  ThroughputMeter meter;
  meter.record(100, 0);
  meter.record_loss(500);
  meter.record_loss(200);
  EXPECT_EQ(meter.lost_bytes(), 700u);
  EXPECT_EQ(meter.lost_msgs(), 2u);
  // Losses never count toward throughput.
  EXPECT_EQ(meter.total_bytes(), 100u);
}

TEST(ThroughputMeter, IdleTracking) {
  ThroughputMeter meter;
  EXPECT_EQ(meter.idle_for(seconds(5.0)),
            std::numeric_limits<Duration>::max());
  meter.record(100, seconds(1.0));
  EXPECT_EQ(meter.idle_for(seconds(1.0)), 0);
  EXPECT_EQ(meter.idle_for(seconds(3.5)), seconds(2.5));
}

TEST(ThroughputMeter, BurstThenGapAveragesOverWindow) {
  ThroughputMeter meter(seconds(1.0), 10);
  // 10 KB all at once at t=0; read at t=0.5: the window average counts it.
  meter.record(10000, 0);
  EXPECT_NEAR(meter.rate(millis(500)), 10e3, 1.0);
}

TEST(ThroughputMeter, OldBinsExpireExactly) {
  ThroughputMeter meter(seconds(1.0), 10);
  meter.record(1000, 0);
  meter.record(1000, millis(950));
  // At t=1.05 the t=0 bin (bin 0) has rolled out of the 10-bin window.
  const double rate = meter.rate(millis(1050));
  EXPECT_NEAR(rate, 1000.0, 1.0);
}

}  // namespace
}  // namespace iov
