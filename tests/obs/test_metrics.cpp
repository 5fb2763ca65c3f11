// MetricsRegistry semantics: counter/gauge/histogram behaviour under
// single- and multi-threaded use, snapshot wire round-trips, the
// Prometheus/JSON/CSV renderers, and name/label sanitization.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>

namespace iov::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("iov_test_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddSub) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("iov_test_depth");
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
}

TEST(Histogram, BucketsCountAndSum) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("iov_test_seconds", {}, {0.01, 0.1, 1.0});
  h.observe(0.005);  // <= 0.01      -> bucket 0
  h.observe(0.01);   // == bound     -> bucket 0 (le semantics)
  h.observe(0.05);   // <= 0.1       -> bucket 1
  h.observe(0.5);    // <= 1.0       -> bucket 2
  h.observe(3.0);    // > last bound -> +inf bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 3.565, 1e-9);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(Histogram, BoundsAreSortedAndDeduped) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("iov_test_seconds", {}, {1.0, 0.1, 1.0, 0.01});
  EXPECT_EQ(h.bounds(), (std::vector<double>{0.01, 0.1, 1.0}));
}

TEST(Registry, SameNameAndLabelsReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("iov_x_total", {{"peer", "p1"}});
  Counter& b = reg.counter("iov_x_total", {{"peer", "p1"}});
  Counter& c = reg.counter("iov_x_total", {{"peer", "p2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("iov_x_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("iov_x_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("iov_test_total");
  Histogram& h = reg.histogram("iov_test_seconds");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1e-4);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<u64>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<u64>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), kThreads * kPerThread * 1e-4, 1e-3);
}

TEST(Registry, SanitizesReservedCharacters) {
  MetricsRegistry reg;
  reg.counter("iov_bad,name{x}", {{"peer", "a|b;c=d"}}).inc();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].name, "iov_bad_name_x_");
  ASSERT_EQ(snap.samples[0].labels.size(), 1u);
  EXPECT_EQ(snap.samples[0].labels[0].second, "a_b_c_d");
}

TEST(Snapshot, SerializeParseRoundTrip) {
  MetricsRegistry reg;
  reg.counter("iov_a_total", {{"peer", "1.2.3.4:5"}, {"dir", "up"}}).inc(7);
  reg.gauge("iov_b_depth").set(-3);
  Histogram& h = reg.histogram("iov_c_seconds", {}, {0.1, 1.0});
  h.observe(0.05);
  h.observe(5.0);

  const std::string wire = reg.snapshot().serialize();
  EXPECT_EQ(wire.find('\n'), std::string::npos);  // single-line by contract

  MetricsSnapshot parsed;
  ASSERT_TRUE(MetricsSnapshot::parse(wire, &parsed));
  ASSERT_EQ(parsed.samples.size(), 3u);

  EXPECT_EQ(parsed.samples[0].name, "iov_a_total");
  EXPECT_EQ(parsed.samples[0].kind, MetricKind::kCounter);
  EXPECT_EQ(parsed.samples[0].value, 7.0);
  EXPECT_EQ(parsed.samples[0].labels,
            (Labels{{"dir", "up"}, {"peer", "1.2.3.4:5"}}));

  EXPECT_EQ(parsed.samples[1].kind, MetricKind::kGauge);
  EXPECT_EQ(parsed.samples[1].value, -3.0);

  const auto& hist = parsed.samples[2];
  EXPECT_EQ(hist.kind, MetricKind::kHistogram);
  EXPECT_EQ(hist.hist.bounds, (std::vector<double>{0.1, 1.0}));
  EXPECT_EQ(hist.hist.counts, (std::vector<u64>{1, 0, 1}));
  EXPECT_EQ(hist.hist.count, 2u);
  EXPECT_NEAR(hist.hist.sum, 5.05, 1e-9);
}

TEST(Snapshot, ParseEmptyIsEmptySnapshot) {
  MetricsSnapshot out;
  EXPECT_TRUE(MetricsSnapshot::parse("", &out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(MetricsSnapshot::parse("  \t ", &out));
  EXPECT_TRUE(out.empty());
}

TEST(Snapshot, ParseSkipsUnknownKinds) {
  // A future metric kind ("q") must not break an old parser.
  MetricsSnapshot out;
  ASSERT_TRUE(MetricsSnapshot::parse("c:iov_a_total,1|q:iov_new,whatever|"
                                     "g:iov_b_depth,2",
                                     &out));
  ASSERT_EQ(out.samples.size(), 2u);
  EXPECT_EQ(out.samples[0].name, "iov_a_total");
  EXPECT_EQ(out.samples[1].name, "iov_b_depth");
}

TEST(Snapshot, ParseRejectsStructuralGarbage) {
  MetricsSnapshot out;
  EXPECT_FALSE(MetricsSnapshot::parse("not a record", &out));
  EXPECT_FALSE(MetricsSnapshot::parse("c:iov_a_total", &out));     // no payload
  EXPECT_FALSE(MetricsSnapshot::parse("c:iov_a_total,abc", &out)); // bad value
}

TEST(Snapshot, ParseRejectsNonFiniteHistogramBound) {
  // Found by DecoderFuzz.MetricsSnapshot: "6.4e1024" overflows to +inf,
  // which serialized as the "inf" bucket marker and no longer parsed.
  MetricsSnapshot snap;
  EXPECT_FALSE(MetricsSnapshot::parse("h:x,6.4e1024:0/inf:0,0,0", &snap));
  EXPECT_FALSE(MetricsSnapshot::parse("h:x,-inf:0/inf:0,0,0", &snap));
  EXPECT_FALSE(MetricsSnapshot::parse("h:x,nan:0/inf:0,0,0", &snap));
  ASSERT_TRUE(MetricsSnapshot::parse("h:x,1e300:2/inf:0,2,1", &snap));
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].hist.bounds, std::vector<double>{1e300});
}

TEST(Snapshot, ExtremeCounterAndGaugeValuesRoundTrip) {
  // Found by DecoderFuzz.MetricsSnapshot: these parse into doubles that
  // round past the integer range, and serialize() cast them unchecked
  // (undefined; 0 and INT64_MIN on x86-64).
  const std::string wire =
      "c:max,18446744073709551615|g:hi,9223372036854775807|"
      "g:lo,-9223372036854775807";
  MetricsSnapshot snap;
  ASSERT_TRUE(MetricsSnapshot::parse(wire, &snap));
  EXPECT_EQ(snap.serialize(), wire);
  MetricsSnapshot again;
  ASSERT_TRUE(MetricsSnapshot::parse(snap.serialize(), &again));
  ASSERT_EQ(again.samples.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(again.samples[i].value, snap.samples[i].value) << i;
  }
}

TEST(Snapshot, AddLabelDoesNotOverwriteExisting) {
  MetricsRegistry reg;
  reg.counter("iov_a_total", {{"node", "self"}}).inc();
  reg.counter("iov_b_total").inc();
  auto snap = reg.snapshot();
  snap.add_label("node", "1.2.3.4:5");
  EXPECT_EQ(snap.samples[0].labels, (Labels{{"node", "self"}}));
  ASSERT_EQ(snap.samples[1].labels.size(), 1u);
  EXPECT_EQ(snap.samples[1].labels[0],
            (std::pair<std::string, std::string>{"node", "1.2.3.4:5"}));
}

TEST(Snapshot, PrometheusRendering) {
  MetricsRegistry reg;
  reg.counter("iov_a_total", {{"peer", "x"}}).inc(3);
  // 0.5 is exactly representable, so %.17g renders it as "0.5".
  Histogram& h = reg.histogram("iov_c_seconds", {}, {0.5});
  h.observe(0.25);
  h.observe(0.75);
  const std::string text = reg.snapshot().to_prometheus();

  EXPECT_NE(text.find("# TYPE iov_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("iov_a_total{peer=\"x\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iov_c_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("iov_c_seconds_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  // Cumulative buckets: the +Inf bucket equals the total count.
  EXPECT_NE(text.find("iov_c_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("iov_c_seconds_count 2"), std::string::npos);
}

TEST(Snapshot, PrometheusEmitsOneTypeLinePerNameAfterMerge) {
  // Two nodes' snapshots merged (as the observer does) still yield one
  // # TYPE line per metric name.
  MetricsRegistry a;
  a.counter("iov_a_total").inc(1);
  MetricsRegistry b;
  b.counter("iov_a_total").inc(2);
  auto sa = a.snapshot();
  sa.add_label("node", "n1");
  auto sb = b.snapshot();
  sb.add_label("node", "n2");
  sa.merge(sb);
  const std::string text = sa.to_prometheus();

  std::size_t type_lines = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE iov_a_total", pos)) != std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("iov_a_total{node=\"n1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("iov_a_total{node=\"n2\"} 2"), std::string::npos);
}

TEST(Snapshot, JsonAndCsvContainSamples) {
  MetricsRegistry reg;
  reg.counter("iov_a_total", {{"peer", "x"}}).inc(3);
  reg.histogram("iov_c_seconds", {}, {0.1}).observe(0.05);
  const auto snap = reg.snapshot();

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"name\":\"iov_a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"peer\":\"x\""), std::string::npos);
  EXPECT_NE(json.find("\"iov_c_seconds\""), std::string::npos);

  const std::string csv = snap.to_csv();
  EXPECT_EQ(csv.find("name,kind,labels,value,count,sum,buckets"), 0u);
  EXPECT_NE(csv.find("iov_a_total,counter,peer=x,3"), std::string::npos);
  EXPECT_NE(csv.find("iov_c_seconds,histogram"), std::string::npos);
}

TEST(Snapshot, EmptySnapshotSerializesEmpty) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_EQ(reg.snapshot().serialize(), "");
}

}  // namespace
}  // namespace iov::obs
