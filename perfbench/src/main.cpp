// iov_perfbench: the data-plane benchmark (README.md). Runs one workload
// in this process and prints its metrics; the last line is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//   iov_perfbench --workload chain4-1k|chain4-64k|tree1k-cbr --seed N
//                 --seconds S --trace 0|1 [--source-id ID]
//                 [--trace-out FILE] [--inject corrupt|drop]
//
// A run is a few rounds. Each round builds the overlay from scratch
// (set-up is timed until every sink has its first message), measures an
// active window, stops the source, drains, measures an idle window with
// every link still open, and tears the overlay down. End-to-end metrics
// are medians over rounds. With --trace 1 the even rounds are traced and
// the odd ones are the untraced baseline for trace.overhead_pct.
//
// Everything is measured from outside the engine, through public calls:
// the Engine lifecycle and snapshot(), metrics().snapshot(), TimedRelay,
// the benchmark's own source and sink, getrusage and /proc.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "load.h"
#include "obs/metric_names.h"
#include "proc.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using iov::Duration;
using iov::engine::Engine;
using iov::engine::EngineConfig;
namespace names = iov::obs::names;

constexpr u32 kApp = 1;
constexpr u64 kTrickleMsgs = 3;
/// Share of --seconds spent in idle windows; the rest is active windows.
constexpr double kIdleShare = 0.4;

struct Workload {
  const char* name;
  std::size_t nodes;
  std::size_t fanout;        ///< children per node; 1 makes a chain
  std::size_t payload;       ///< bytes per message
  double rate;               ///< msgs/s at the root; 0 = back-to-back
  std::size_t buffer_msgs;   ///< every receive and send buffer
  int switch_weight;
  int socket_buffer_bytes;   ///< 0 keeps the engine default
  bool every_node_sinks;     ///< else only the last node consumes
  int rounds;
  int extra_setups;          ///< set-ups timed beyond the rounds' own
  double warmup_s;
  u64 span_stride;           ///< traced rounds keep every n-th message
};

// Why these three (README.md): chain4-1k is dominated by per-message
// cost, chain4-64k by per-byte cost, tree1k-cbr by per-node fixed cost.
// The chains run back-to-back, closed by the buffers' back-pressure;
// 64-message buffers keep 64 KB messages to a few MB per link.
// The tree uses bench_scale's per-node budget (16-message queues, 32 KB
// socket buffers) at 16 msg/s, a rate at which its latency is steady.
constexpr Workload kWorkloads[] = {
    {"chain4-1k", 4, 1, 1024, 0, 1024, 64, 0, false, 14, 20, 0.2, 8},
    {"chain4-64k", 4, 1, 64 * 1024, 0, 64, 64, 0, false, 14, 20, 0.2, 1},
    {"tree1k-cbr", 1000, 8, 1024, 16, 16, 8, 32 * 1024, true, 7, 4, 0.5, 1},
};

struct Options {
  const Workload* workload = nullptr;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  Inject inject = Inject::kNone;
  std::string source_id = "unknown";
  std::string trace_out;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"msgs_per_s", "msgs/s"},    {"mb_per_s", "MB/s"},
    {"cpu_us_per_hop", "us"},    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},    {"delivery_ratio", "ratio"},
    {"setup_s", "s"},            {"rss_kb_per_node", "KB"},
    {"idle_cores", "cores"},
};

constexpr MetricSpec kPerLayer[] = {
    {"apps.source_ns_per_msg", "ns"},
    {"apps.source_lag_p50_ms", "ms"},
    {"apps.source_lag_p99_ms", "ms"},
    {"apps.sink_ns_per_msg", "ns"},
    {"algorithm.process_ns_p50", "ns"},
    {"algorithm.calls_per_msg", "count"},
    {"engine.cpu_us_per_hop", "us"},
    {"engine.runq_wait_us_per_hop", "us"},
    {"engine.wakeups_per_hop", "count"},
    {"engine.switch_wait_us_p50", "us"},
    {"engine.switch_wait_us_p99", "us"},
    {"engine.msgs_per_round", "count"},
    {"engine.idle_cpu_us_per_node_s", "us"},
    {"engine.start_ms_per_node", "ms"},
    {"engine.tail_stranded_msgs", "count"},
    {"reactor.cpu_us_per_hop", "us"},
    {"reactor.runq_wait_us_per_hop", "us"},
    {"reactor.wakeups_per_hop", "count"},
    {"reactor.busy_workers", "count"},
    {"reactor.loop_lag_p99_us", "us"},
    {"net.syscalls_per_msg", "count"},
    {"net.msgs_per_flush", "count"},
    {"net.send_queue_fill", "ratio"},
    {"net.recv_queue_fill", "ratio"},
    {"hop.transit_us_p50", "us"},
    {"hop.transit_us_p99", "us"},
    {"message.slab_hit_rate", "ratio"},
    {"message.allocs_per_hop", "count"},
    {"process.threads", "count"},
    {"process.fds_per_node", "count"},
    {"trace.overhead_pct", "%"},
};

/// Why a per-layer metric may have no value on some workload.
const std::map<std::string, std::string> kNotMeasuredWhy = {
    {"message.slab_hit_rate",
     "no frame exceeded the 64 KB reader chunk, so the slab pool was "
     "never used"},
};

EngineConfig config_for(const Workload& w) {
  EngineConfig c;
  c.recv_buffer_msgs = w.buffer_msgs;
  c.send_buffer_msgs = w.buffer_msgs;
  c.default_switch_weight = w.switch_weight;
  if (w.socket_buffer_bytes > 0) c.socket_buffer_bytes = w.socket_buffer_bytes;
  return c;
}

struct Node {
  std::unique_ptr<SpanTable> spans;      ///< process(), traced rounds
  std::unique_ptr<SpanTable> app_spans;  ///< next_message() or deliver()
  TimedRelay* relay = nullptr;
  std::shared_ptr<CheckingSink> sink;
  // Last, so it is destroyed (and its thread joined) before the tables.
  std::unique_ptr<Engine> engine;
};

/// Registry counters and histograms summed over every engine.
struct Totals {
  double switch_msgs = 0;
  double switch_rounds = 0;
  double syscalls = 0;
  double wire_msgs = 0;
  double slab_hit = 0;
  double slab_miss = 0;
  iov::obs::HistogramData switch_wait;
  iov::obs::HistogramData loop_lag;
  iov::obs::HistogramData flush;
};

bool has_label(const iov::obs::MetricSample& s, const char* key,
               const char* value) {
  for (const auto& [k, v] : s.labels) {
    if (k == key) return v == value;
  }
  return false;
}

Totals registry_totals(const std::vector<Node>& nodes) {
  Totals t;
  for (const auto& n : nodes) {
    for (const auto& s : n.engine->metrics().snapshot().samples) {
      if (s.name == names::kSwitchMessagesTotal) {
        t.switch_msgs += s.value;
      } else if (s.name == names::kSwitchRoundsTotal) {
        t.switch_rounds += s.value;
      } else if (s.name == names::kLinkSyscallsTotal) {
        t.syscalls += s.value;
      } else if (s.name == names::kLinkMessagesTotal) {
        t.wire_msgs += s.value;
      } else if (s.name == names::kPoolSlabAcquiresTotal) {
        (has_label(s, "result", "hit") ? t.slab_hit : t.slab_miss) += s.value;
      } else if (s.name == names::kSwitchLatencySeconds) {
        merge(t.switch_wait, s.hist);
      } else if (s.name == names::kReactorLoopLagSeconds) {
        merge(t.loop_lag, s.hist);
      } else if (s.name == names::kLinkFlushMsgs &&
                 has_label(s, "dir", "down")) {
        merge(t.flush, s.hist);
      }
    }
  }
  return t;
}

/// The counters read at either end of a window.
struct Sample {
  TimePoint t = 0;
  i64 cpu_ns = 0;
  u64 hops = 0;       ///< data messages processed by non-root nodes
  u64 calls = 0;      ///< every process() call
  u64 delivered = 0;  ///< good deliveries over every sink
  u64 emitted = 0;
  // Traced rounds only.
  std::vector<ThreadStat> threads;
  Totals registry;
  u64 allocs = 0;
};

Sample take(const std::vector<Node>& nodes, const PatternSource& source,
            bool traced) {
  Sample s;
  if (traced) {
    s.threads = thread_stats();
    s.registry = registry_totals(nodes);
    s.allocs = allocs_counted();
  }
  s.t = clock_now();
  s.cpu_ns = process_cpu_ns();
  s.emitted = source.emitted();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) s.hops += nodes[i].relay->data_calls();
    s.calls += nodes[i].relay->calls();
    if (nodes[i].sink) s.delivered += nodes[i].sink->good();
  }
  return s;
}

/// Scheduler time of one class of threads over a window.
struct ThreadDelta {
  double run_ns = 0;
  double wait_ns = 0;
  double wakeups = 0;
  int busy = 0;  ///< threads on a CPU for more than 10% of the window
};

/// Splits per-thread deltas into the engine threads (`engine_tids`) and
/// the reactor pool: every other thread except the benchmark's own.
std::pair<ThreadDelta, ThreadDelta> split_threads(
    const std::vector<ThreadStat>& before, const std::vector<ThreadStat>& after,
    const std::set<int>& engine_tids, double window_ns) {
  std::unordered_map<int, ThreadStat> prior;
  for (const auto& t : before) prior[t.tid] = t;
  const int self = static_cast<int>(::getpid());
  ThreadDelta engine;
  ThreadDelta reactor;
  for (const auto& t : after) {
    const auto it = prior.find(t.tid);
    if (it == prior.end() || t.tid == self) continue;
    ThreadDelta& d = engine_tids.count(t.tid) > 0 ? engine : reactor;
    const double run = static_cast<double>(t.run_ns - it->second.run_ns);
    d.run_ns += run;
    d.wait_ns += static_cast<double>(t.wait_ns - it->second.wait_ns);
    d.wakeups += static_cast<double>(t.voluntary - it->second.voluntary);
    if (run > 0.1 * window_ns) ++d.busy;
  }
  return {engine, reactor};
}

double ratio(double num, double den) { return den > 0 ? num / den : -1; }

bool wait_until(const std::function<bool()>& done, double timeout_s) {
  const TimePoint end = clock_now() + iov::seconds(timeout_s);
  while (!done()) {
    if (clock_now() > end) return false;
    iov::sleep_for(iov::millis(1));
  }
  return true;
}

struct Round {
  bool traced = false;
  double setup_s = 0;
  double msgs_per_s = 0;
  double mb_per_s = 0;
  double cpu_us_per_hop = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  u64 latency_samples = 0;
  double idle_cores = 0;
  double idle_cpu_ns = 0;
  double idle_ns = 0;
  u64 expected = 0;            ///< deliveries
  u64 failed = 0;
  u64 stranded = 0;  ///< deliveries still missing 1 s after the stop
  std::map<std::string, double> layer;
};

struct Context {
  const Workload& w;
  const Options& opt;
  std::shared_ptr<const PatternSet> patterns;
  std::unique_ptr<Shared> shared;
  long rss_base_kb = 0;
};

/// What a traced round measured besides the two Samples.
struct TracedExtras {
  std::vector<ThreadStat> idle_before;
  std::vector<ThreadStat> idle_after;
  double idle_ns = 0;
  std::set<int> engine_tids;
  std::vector<double> send_fill;
  std::vector<double> recv_fill;
  Duration start_ns = 0;
  long threads = 0;
  double fds = 0;
};

std::map<std::string, double> layer_metrics(const Context& c,
                                            const std::vector<Node>& nodes,
                                            const Sample& a, const Sample& b,
                                            const TracedExtras& x) {
  const Workload& w = c.w;
  const double n = static_cast<double>(w.nodes);
  const double window_ns = static_cast<double>(b.t - a.t);
  const double hops = static_cast<double>(b.hops - a.hops);
  const u64 stride = w.span_stride;
  const u64 lo = (a.emitted + stride - 1) / stride * stride;
  std::map<std::string, double> m;

  // Spans of the messages emitted during the window.
  auto process = std::make_unique<Hist>();
  auto transit = std::make_unique<Hist>();
  double src_ns = 0, src_n = 0, sink_ns = 0, sink_n = 0;
  TimePoint pb = 0, pe = 0, cb = 0, ce = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& nd = nodes[i];
    const Node& parent = nodes[i == 0 ? 0 : (i - 1) / w.fanout];
    for (u64 seq = lo; seq < b.emitted; seq += stride) {
      if (nd.spans->get(seq, &cb, &ce)) {
        process->add(ce - cb);
        if (i > 0 && parent.spans->get(seq, &pb, &pe)) transit->add(cb - pe);
      }
      if (nd.app_spans && nd.app_spans->get(seq, &cb, &ce)) {
        (i == 0 ? src_ns : sink_ns) += static_cast<double>(ce - cb);
        (i == 0 ? src_n : sink_n) += 1;
      }
    }
  }
  const auto lag = c.shared->lag.counts();
  const auto proc = process->counts();
  const auto hop = transit->counts();
  m["apps.source_ns_per_msg"] = ratio(src_ns, src_n);
  m["apps.source_lag_p50_ms"] = quantile(lag, 0.5) / 1e6;
  m["apps.source_lag_p99_ms"] = quantile(lag, 0.99) / 1e6;
  m["apps.sink_ns_per_msg"] = ratio(sink_ns, sink_n);
  m["algorithm.process_ns_p50"] = quantile(proc, 0.5);
  m["algorithm.calls_per_msg"] =
      ratio(static_cast<double>(b.calls - a.calls),
            static_cast<double>(b.emitted - a.emitted) * n);
  m["hop.transit_us_p50"] = quantile(hop, 0.5) / 1e3;
  m["hop.transit_us_p99"] = quantile(hop, 0.99) / 1e3;

  const auto [eng, rea] =
      split_threads(a.threads, b.threads, x.engine_tids, window_ns);
  const auto idle = split_threads(x.idle_before, x.idle_after, x.engine_tids,
                                  x.idle_ns);
  m["engine.cpu_us_per_hop"] = ratio(eng.run_ns / 1e3, hops);
  m["engine.runq_wait_us_per_hop"] = ratio(eng.wait_ns / 1e3, hops);
  m["engine.wakeups_per_hop"] = ratio(eng.wakeups, hops);
  m["engine.idle_cpu_us_per_node_s"] =
      ratio(idle.first.run_ns / 1e3, n * x.idle_ns / 1e9);
  m["engine.start_ms_per_node"] = static_cast<double>(x.start_ns) / 1e6 / n;
  m["reactor.cpu_us_per_hop"] = ratio(rea.run_ns / 1e3, hops);
  m["reactor.runq_wait_us_per_hop"] = ratio(rea.wait_ns / 1e3, hops);
  m["reactor.wakeups_per_hop"] = ratio(rea.wakeups, hops);
  m["reactor.busy_workers"] = rea.busy;

  const Totals& r0 = a.registry;
  const Totals& r1 = b.registry;
  const auto wait = minus(r1.switch_wait, r0.switch_wait);
  const auto loop = minus(r1.loop_lag, r0.loop_lag);
  const auto flush = minus(r1.flush, r0.flush);
  const double q50 = quantile(wait, 0.5);
  const double q99 = quantile(wait, 0.99);
  const double lag99 = quantile(loop, 0.99);
  m["engine.switch_wait_us_p50"] = q50 < 0 ? -1 : q50 * 1e6;
  m["engine.switch_wait_us_p99"] = q99 < 0 ? -1 : q99 * 1e6;
  m["engine.msgs_per_round"] = ratio(r1.switch_msgs - r0.switch_msgs,
                                     r1.switch_rounds - r0.switch_rounds);
  m["reactor.loop_lag_p99_us"] = lag99 < 0 ? -1 : lag99 * 1e6;
  m["net.syscalls_per_msg"] =
      ratio(r1.syscalls - r0.syscalls, r1.wire_msgs - r0.wire_msgs);
  m["net.msgs_per_flush"] =
      ratio(flush.sum, static_cast<double>(flush.count));
  m["net.send_queue_fill"] = median(x.send_fill);
  m["net.recv_queue_fill"] = median(x.recv_fill);
  const double hits = r1.slab_hit - r0.slab_hit;
  m["message.slab_hit_rate"] =
      ratio(hits, hits + r1.slab_miss - r0.slab_miss);
  m["message.allocs_per_hop"] =
      ratio(static_cast<double>(b.allocs - a.allocs), hops);
  m["process.threads"] = static_cast<double>(x.threads);
  m["process.fds_per_node"] = x.fds / n;
  return m;
}

void sample_queues(const std::vector<Node>& nodes, TracedExtras* x) {
  double send_len = 0, send_cap = 0, recv_len = 0, recv_cap = 0;
  for (const auto& nd : nodes) {
    for (const auto& l : nd.engine->snapshot().links) {
      send_len += static_cast<double>(l.down.buffer_len);
      send_cap += static_cast<double>(l.down.buffer_cap);
      recv_len += static_cast<double>(l.up.buffer_len);
      recv_cap += static_cast<double>(l.up.buffer_cap);
    }
  }
  if (send_cap > 0) x->send_fill.push_back(send_len / send_cap);
  if (recv_cap > 0) x->recv_fill.push_back(recv_len / recv_cap);
}

/// Writes the spans of messages [lo, hi) as CSV.
void write_spans(const std::string& path, const std::vector<Node>& nodes,
                 u64 lo, u64 hi, u64 stride) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("note: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "node,span,seq,begin_ns,end_ns\n");
  lo = (lo + stride - 1) / stride * stride;
  TimePoint b = 0, e = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const char* app_span = i == 0 ? "next_message" : "deliver";
    for (u64 seq = lo; seq < hi; seq += stride) {
      if (nodes[i].spans->get(seq, &b, &e)) {
        std::fprintf(f, "%zu,process,%llu,%lld,%lld\n", i,
                     static_cast<unsigned long long>(seq),
                     static_cast<long long>(b), static_cast<long long>(e));
      }
      if (nodes[i].app_spans && nodes[i].app_spans->get(seq, &b, &e)) {
        std::fprintf(f, "%zu,%s,%llu,%lld,%lld\n", i, app_span,
                     static_cast<unsigned long long>(seq),
                     static_cast<long long>(b), static_cast<long long>(e));
      }
    }
  }
  std::fclose(f);
}

/// A started overlay whose every sink has had its first message.
struct Overlay {
  std::vector<Node> nodes;
  std::shared_ptr<PatternSource> source;
  double setup_s = 0;    ///< first Engine constructor to the last first delivery
  Duration start_ns = 0;  ///< time inside Engine::start(), summed
};

bool every_sink(const std::vector<Node>& nodes,
                const std::function<bool(const CheckingSink&)>& pred) {
  for (const auto& nd : nodes) {
    if (nd.sink && !pred(*nd.sink)) return false;
  }
  return true;
}

/// Builds the workload's overlay, deploys the source and waits until
/// every sink has a message. `slots` > 0 makes it traced.
Overlay build_overlay(Context& c, bool traced, std::size_t slots) {
  const Workload& w = c.w;
  const std::size_t n = w.nodes;
  Overlay o;
  const TimePoint t0 = clock_now();
  o.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Node& nd = o.nodes[i];
    if (traced) nd.spans = std::make_unique<SpanTable>(w.span_stride, slots);
    auto relay = std::make_unique<TimedRelay>(nd.spans.get());
    nd.relay = relay.get();
    nd.engine = std::make_unique<Engine>(config_for(w), std::move(relay));
    const bool is_sink = i > 0 && (w.every_node_sinks || i + 1 == n);
    if (traced && (i == 0 || is_sink)) {
      nd.app_spans = std::make_unique<SpanTable>(w.span_stride, slots);
    }
    if (i == 0) {
      o.source = std::make_shared<PatternSource>(c.patterns, *c.shared, w.rate);
      o.source->trace_into(nd.app_spans.get());
      nd.engine->register_app(kApp, o.source);
    } else if (is_sink) {
      nd.sink = std::make_shared<CheckingSink>(
          c.patterns, *c.shared, i + 1 == n ? c.opt.inject : Inject::kNone);
      nd.sink->trace_into(nd.app_spans.get());
      nd.engine->register_app(kApp, nd.sink);
      nd.relay->set_consume(kApp, true);
    }
  }
  // Children start first, so every parent's edges name a started peer.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t k = 1; k <= w.fanout && w.fanout * i + k < n; ++k) {
      o.nodes[i].relay->add_child(kApp,
                                  o.nodes[w.fanout * i + k].engine->self());
    }
    const TimePoint s0 = clock_now();
    if (!o.nodes[i].engine->start()) {
      throw std::runtime_error("engine start failed");
    }
    o.start_ns += clock_now() - s0;
  }
  o.nodes[0].engine->deploy_source(kApp);
  if (!wait_until(
          [&] {
            return every_sink(o.nodes, [](const CheckingSink& s) {
              return s.first_delivery() >= 0;
            });
          },
          60)) {
    throw std::runtime_error("a sink never received a message");
  }
  TimePoint last_first = t0;
  for (const auto& nd : o.nodes) {
    if (nd.sink) last_first = std::max(last_first, nd.sink->first_delivery());
  }
  o.setup_s = iov::to_seconds(last_first - t0);
  return o;
}

void stop_overlay(Overlay& o) {
  for (auto& nd : o.nodes) nd.engine->stop();
  for (auto& nd : o.nodes) nd.engine->join();
}

Round run_round(Context& c, int index, bool traced, bool write_trace) {
  const Workload& w = c.w;
  Shared& sh = *c.shared;
  sh.latency.reset();
  sh.lag.reset();
  Round r;
  r.traced = traced;
  const double window_s = (1 - kIdleShare) * c.opt.seconds / w.rounds;
  const double idle_s = kIdleShare * c.opt.seconds / w.rounds;
  // Room for every message a round emits, at the stride.
  const std::size_t slots =
      w.rate > 0 ? static_cast<std::size_t>(
                       w.rate * (window_s + w.warmup_s + 10)) + 64
                 : std::size_t{1} << 17;
  TracedExtras x;
  const std::size_t fds_before = traced ? open_fds() : 0;

  Overlay o = build_overlay(c, traced, slots);
  std::vector<Node>& nodes = o.nodes;
  PatternSource* source = o.source.get();
  r.setup_s = o.setup_s;
  x.start_ns = o.start_ns;
  iov::sleep_for(iov::seconds(w.warmup_s));

  // Active window.
  const Sample a = take(nodes, *source, traced);
  sh.recording.store(true, std::memory_order_relaxed);
  if (traced) count_allocs(true);
  constexpr int kSteps = 10;
  for (int s = 0; s < kSteps; ++s) {
    iov::sleep_for(iov::seconds(window_s / kSteps));
    if (traced) sample_queues(nodes, &x);
  }
  if (traced) count_allocs(false);
  sh.recording.store(false, std::memory_order_relaxed);
  const Sample b = take(nodes, *source, traced);

  // Drain: stop the source, then wait for every sink to catch up. A
  // saturated stream that stops can leave messages stranded in a send
  // buffer until another message arrives behind them (README.md, "The
  // drain"); they are counted, and a few more messages push them out.
  source->stop();
  if (!wait_until([source] { return source->stopped(); }, 10)) {
    throw std::runtime_error("the source engine never polled its source");
  }
  u64 sent = source->emitted();
  const auto caught_up = [&] {
    return every_sink(nodes, [&sent](const CheckingSink& s) {
      return s.next_expected() >= sent;
    });
  };
  for (int tries = 0; tries < 3 && !wait_until(caught_up, 1.0); ++tries) {
    if (tries == 0) {
      for (const auto& nd : nodes) {
        if (nd.sink) r.stranded += sent - std::min(sent, nd.sink->next_expected());
      }
    }
    source->trickle(kTrickleMsgs);
    if (!wait_until([&] { return source->emitted() >= sent + kTrickleMsgs; },
                    10)) {
      break;
    }
    sent = source->emitted();
  }
  wait_until(caught_up, 10);
  nodes[0].engine->terminate_source(kApp);

  // Idle window: the source is stopped and every link stays open.
  iov::sleep_for(iov::millis(100));
  if (traced) x.idle_before = thread_stats();
  const TimePoint i0 = clock_now();
  const i64 cpu0 = process_cpu_ns();
  iov::sleep_for(iov::seconds(idle_s));
  const TimePoint i1 = clock_now();
  const i64 cpu1 = process_cpu_ns();
  if (traced) {
    x.idle_after = thread_stats();
    x.idle_ns = static_cast<double>(i1 - i0);
    for (const auto& nd : nodes) x.engine_tids.insert(nd.relay->tid());
    x.threads = status_field("Threads");
    x.fds = static_cast<double>(open_fds()) - static_cast<double>(fds_before);
  }
  r.idle_cpu_ns = static_cast<double>(cpu1 - cpu0);
  r.idle_ns = static_cast<double>(i1 - i0);
  r.idle_cores = r.idle_cpu_ns / r.idle_ns;

  stop_overlay(o);

  CheckingSink::Failures bad;
  for (const auto& nd : nodes) {
    if (!nd.sink) continue;
    const auto f = nd.sink->failures(sent);
    bad.missing += f.missing;
    bad.corrupt += f.corrupt;
    bad.late += f.late;
    r.expected += sent;
  }
  r.failed = bad.total();
  if (r.stranded > 0) {
    std::printf("round %d: %llu deliveries stranded at the end of the stream "
                "until %llu more messages pushed them out\n",
                index, static_cast<unsigned long long>(r.stranded),
                static_cast<unsigned long long>(kTrickleMsgs));
  }
  if (r.failed > 0) {
    std::printf("round %d: %llu missing, %llu corrupt, %llu duplicated or "
                "out of order\n",
                index, static_cast<unsigned long long>(bad.missing),
                static_cast<unsigned long long>(bad.corrupt),
                static_cast<unsigned long long>(bad.late));
  }
  const double secs = iov::to_seconds(b.t - a.t);
  const double hops = static_cast<double>(b.hops - a.hops);
  if (hops <= 0) throw std::runtime_error("no message crossed a link");
  r.msgs_per_s = static_cast<double>(b.delivered - a.delivered) / secs;
  r.mb_per_s = r.msgs_per_s * static_cast<double>(w.payload) / 1e6;
  r.cpu_us_per_hop = static_cast<double>(b.cpu_ns - a.cpu_ns) / 1e3 / hops;
  const auto lat = sh.latency.counts();
  r.latency_samples = total(lat);
  r.latency_p50_ms = quantile(lat, 0.5) / 1e6;
  r.latency_p99_ms = quantile(lat, 0.99) / 1e6;
  if (traced) {
    r.layer = layer_metrics(c, nodes, a, b, x);
    if (write_trace) {
      write_spans(c.opt.trace_out, nodes, a.emitted, b.emitted, w.span_stride);
    }
  }
  std::printf(
      "round %d%s: setup %.3f s, %.0f msgs/s, %.1f MB/s, %.2f us/hop, "
      "latency p50 %.3f p99 %.3f ms (%llu samples), idle %.4f cores, "
      "%llu/%llu deliveries failed\n",
      index, traced ? " (traced)" : "", r.setup_s, r.msgs_per_s, r.mb_per_s,
      r.cpu_us_per_hop, r.latency_p50_ms, r.latency_p99_ms,
      static_cast<unsigned long long>(r.latency_samples), r.idle_cores,
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.expected));
  return r;
}

double median_of(const std::vector<Round>& rounds, bool traced,
                 double Round::*field) {
  std::vector<double> v;
  for (const auto& r : rounds) {
    if (r.traced == traced) v.push_back(r.*field);
  }
  return median(v);
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  std::printf("host %s\n", host_fingerprint(opt.source_id).c_str());
  std::printf("workload %s: %zu nodes, fanout %zu, %zu B, %s, seed %llu\n",
              w.name, w.nodes, w.fanout, w.payload,
              w.rate > 0 ? "constant rate" : "back-to-back",
              static_cast<unsigned long long>(opt.seed));
  std::fflush(stdout);

  Context c{w, opt, std::make_shared<PatternSet>(w.payload, opt.seed),
            std::make_unique<Shared>(), 0};
  c.rss_base_kb = status_field("VmRSS");
  int last_traced = -1;
  for (int i = 0; opt.trace && i < w.rounds; i += 2) last_traced = i;
  std::vector<Round> rounds;
  for (int i = 0; i < w.rounds; ++i) {
    const bool traced = opt.trace && i % 2 == 0;
    rounds.push_back(run_round(c, i, traced,
                               i == last_traced && !opt.trace_out.empty()));
    std::fflush(stdout);
  }

  u64 expected = 0;
  u64 failed = 0;
  std::vector<double> setups;
  for (const auto& r : rounds) {
    expected += r.expected;
    failed += r.failed;
    setups.push_back(r.setup_s);
  }
  const long rss_peak_kb = status_field("VmHWM");
  // More set-ups for a steady setup_s median. Their sinks still check
  // every delivery, but nothing drains, so only corrupt or late ones count.
  for (int i = 0; !opt.trace && i < w.extra_setups; ++i) {
    Overlay o = build_overlay(c, false, 0);
    setups.push_back(o.setup_s);
    stop_overlay(o);
    for (const auto& nd : o.nodes) {
      if (!nd.sink) continue;
      const auto f = nd.sink->failures(0);
      failed += f.corrupt + f.late;
    }
  }
  std::map<std::string, double> values;
  if (!opt.trace) {
    values["msgs_per_s"] = median_of(rounds, false, &Round::msgs_per_s);
    values["mb_per_s"] = median_of(rounds, false, &Round::mb_per_s);
    values["cpu_us_per_hop"] = median_of(rounds, false, &Round::cpu_us_per_hop);
    values["latency_p50_ms"] = median_of(rounds, false, &Round::latency_p50_ms);
    values["latency_p99_ms"] = median_of(rounds, false, &Round::latency_p99_ms);
    values["delivery_ratio"] =
        expected > 0 ? 1.0 - static_cast<double>(failed) /
                                 static_cast<double>(expected)
                     : 0;
    values["setup_s"] = median(setups);
    values["rss_kb_per_node"] =
        static_cast<double>(rss_peak_kb - c.rss_base_kb) /
        static_cast<double>(w.nodes);
    // The idle cost is small on the chains, so pool every idle window.
    double idle_cpu_ns = 0;
    double idle_ns = 0;
    for (const auto& r : rounds) {
      idle_cpu_ns += r.idle_cpu_ns;
      idle_ns += r.idle_ns;
    }
    values["idle_cores"] = idle_cpu_ns / idle_ns;
  } else {
    for (const auto& spec : kPerLayer) {
      std::vector<double> v;
      for (const auto& r : rounds) {
        const auto it = r.layer.find(spec.name);
        if (r.traced && it != r.layer.end() && it->second >= 0) {
          v.push_back(it->second);
        }
      }
      values[spec.name] = median(v);
    }
    double stranded = 0;
    for (const auto& r : rounds) stranded += static_cast<double>(r.stranded);
    values["engine.tail_stranded_msgs"] = stranded;
    const double on = median_of(rounds, true, &Round::cpu_us_per_hop);
    const double off = median_of(rounds, false, &Round::cpu_us_per_hop);
    values["trace.overhead_pct"] = off > 0 ? (on / off - 1) * 100 : -1;
  }

  std::vector<std::string> not_measured;
  std::string json;
  for (const auto& spec : opt.trace ? std::vector<MetricSpec>(
                                          std::begin(kPerLayer),
                                          std::end(kPerLayer))
                                    : std::vector<MetricSpec>(
                                          std::begin(kEndToEnd),
                                          std::end(kEndToEnd))) {
    double v = values[spec.name];
    if (!std::isfinite(v)) v = -1;
    if (v < 0 && spec.name != std::string("trace.overhead_pct")) {
      const auto why = kNotMeasuredWhy.find(spec.name);
      not_measured.push_back(
          std::string(spec.name) + ": " +
          (why != kNotMeasuredWhy.end() ? why->second
                                        : "no samples in the window"));
    }
    std::printf("%-34s %16.6f %s\n", spec.name, v, spec.unit);
    char item[160];
    std::snprintf(item, sizeof(item), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, v, spec.unit);
    json += item;
  }
  for (const auto& m : not_measured) {
    std::printf("not measured (value -1): %s\n", m.c_str());
  }
  if (!opt.trace) {
    std::printf("latency samples per round:");
    for (const auto& r : rounds) {
      std::printf(" %llu", static_cast<unsigned long long>(r.latency_samples));
    }
    std::printf("\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(failed), json.c_str());
  return failed == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload chain4-1k|chain4-64k|tree1k-cbr "
               "--seed N --seconds S --trace 0|1 [--source-id ID] "
               "[--trace-out FILE] [--inject corrupt|drop]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) opt.workload = &w;
      }
      if (opt.workload == nullptr) return usage(argv[0]);
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--source-id") {
      opt.source_id = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--inject") {
      if (std::strcmp(value, "corrupt") == 0) {
        opt.inject = Inject::kCorrupt;
      } else if (std::strcmp(value, "drop") == 0) {
        opt.inject = Inject::kDrop;
      } else {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.workload == nullptr || !(opt.seconds > 0)) {
    return usage(argv[0]);
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
