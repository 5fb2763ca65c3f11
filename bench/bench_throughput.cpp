// Wire-path throughput (DESIGN.md §8): loopback pair and relay chain,
// back-to-back traffic over the batched zero-copy wire path
// (scatter-gather sends + FrameReader bulk decode + slab-pooled large
// frames). Rows with "mode": "legacy" in the committed
// BENCH_throughput.json come from the since-deleted thread-per-link
// path and are kept as history.
//
// Reports messages/s and MB/s from the terminal sink, plus
// syscalls-per-wire-message summed over every link of every engine
// (iov_link_syscalls_total / iov_link_messages_total). Emits a JSON
// artifact (default BENCH_throughput.json; see
// tools/run_bench_throughput.sh).
//
// Each configuration is run several times (3 by default, 1 in smoke);
// the JSON keeps the historical field names for the means and adds
// `*_sd` run-to-run standard deviations plus `runs`. The measured
// window scales with payload size (4x at 64 KB) so the per-run message
// count stays high enough for a stable estimate at every tier. Rows
// also record `pool_hit_rate` — the slab pool's share of recycled
// acquisitions (receive chunks and large-frame payloads) over the
// window (~1.0 means zero per-message receive allocations; DESIGN.md
// §8).
//
// Flags:
//   --out <path>   JSON output path (default BENCH_throughput.json)
//   --secs <s>     base measured window per run (default 1.0)
//   --smoke        ~5 s CI variant: chain @ 1 KB + 64 KB, one short
//                  window each; exits non-zero if the wire path fails to
//                  beat one syscall per message at 1 KB or the slab pool
//                  serves fewer than 95% of the 64 KB payloads from its
//                  freelist (the fast path that keeps large frames free
//                  of per-message allocations).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algorithm/relay.h"
#include "apps/sink.h"
#include "apps/source.h"
#include "bench_util.h"
#include "common/clock.h"
#include "engine/engine.h"
#include "obs/metric_names.h"

namespace {

using namespace iov;         // NOLINT
using namespace iov::bench;  // NOLINT
using engine::Engine;
using engine::EngineConfig;

constexpr u32 kApp = 1;

struct RunResult {
  std::string topology;
  std::size_t payload = 0;
  double msgs_per_sec = 0;
  double bytes_per_sec = 0;
  double syscalls_per_msg = 0;
  u64 sink_msgs = 0;
  /// Share of large-frame slab acquisitions served from the freelist
  /// during the window, summed over every engine; negative when the
  /// config never touched the pool (small frames).
  double pool_hit_rate = -1.0;
  // Aggregation across repeats (mean fields above, spread here).
  int runs = 1;
  double msgs_per_sec_sd = 0;
  double bytes_per_sec_sd = 0;
};

struct Node {
  std::unique_ptr<Engine> engine;
  RelayAlgorithm* relay = nullptr;
};

Node make_node() {
  auto algorithm = std::make_unique<RelayAlgorithm>();
  Node n;
  n.relay = algorithm.get();
  EngineConfig config;
  config.recv_buffer_msgs = 1024;
  config.send_buffer_msgs = 1024;
  // Deep switch rounds so sources and relays hand each link enough
  // backlog for full-size flushes.
  config.default_switch_weight = 64;
  // Pin the socket buffers explicitly (to the engine default) so every
  // run uses the same locked size regardless of future default changes:
  // auto-tuned buffers are subject to the kernel's window clamp, which
  // intermittently collapses a saturated loopback link into RTO-paced
  // retransmission stalls (see EngineConfig::socket_buffer_bytes) and
  // would make the rows bimodal.
  config.socket_buffer_bytes = 256 * 1024;
  n.engine = std::make_unique<Engine>(config, std::move(algorithm));
  return n;
}

/// Sums a counter metric across every link (all peers, both dirs).
u64 sum_counter(const Engine& e, const char* name) {
  double total = 0;
  for (const auto& s : e.metrics().snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return static_cast<u64>(total);
}

/// Sums a counter, keeping only samples carrying `key`=`value`.
u64 sum_counter_labeled(const Engine& e, const char* name, const char* key,
                        const char* value) {
  double total = 0;
  for (const auto& s : e.metrics().snapshot().samples) {
    if (s.name != name) continue;
    for (const auto& kv : s.labels) {
      if (kv.first == key && kv.second == value) {
        total += s.value;
        break;
      }
    }
  }
  return static_cast<u64>(total);
}

/// `hops` engines in a line: source at [0], sink at [hops-1].
RunResult run_case(std::size_t hops, std::size_t payload, double secs) {
  RealClock clock;
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < hops; ++i) nodes.push_back(make_node());

  nodes.front().engine->register_app(
      kApp, std::make_shared<apps::BackToBackSource>(payload));
  auto sink = std::make_shared<apps::SinkApp>();
  nodes.back().engine->register_app(kApp, sink);
  for (auto& n : nodes) {
    if (!n.engine->start()) {
      std::fprintf(stderr, "engine start failed\n");
      std::exit(1);
    }
  }
  for (std::size_t i = 0; i + 1 < hops; ++i) {
    nodes[i].relay->add_child(kApp, nodes[i + 1].engine->self());
  }
  nodes.back().relay->set_consume(kApp, true);
  nodes.front().engine->deploy_source(kApp);

  sleep_for(seconds(secs * 0.3));  // dial + settle
  const auto s0 = sink->stats(clock.now());
  u64 sys0 = 0;
  u64 wire0 = 0;
  u64 hit0 = 0;
  u64 miss0 = 0;
  for (const auto& n : nodes) {
    sys0 += sum_counter(*n.engine, obs::names::kLinkSyscallsTotal);
    wire0 += sum_counter(*n.engine, obs::names::kLinkMessagesTotal);
    hit0 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                "result", "hit");
    miss0 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                 "result", "miss");
  }
  const TimePoint t0 = clock.now();
  sleep_for(seconds(secs));
  const auto s1 = sink->stats(clock.now());
  u64 sys1 = 0;
  u64 wire1 = 0;
  u64 hit1 = 0;
  u64 miss1 = 0;
  for (const auto& n : nodes) {
    sys1 += sum_counter(*n.engine, obs::names::kLinkSyscallsTotal);
    wire1 += sum_counter(*n.engine, obs::names::kLinkMessagesTotal);
    hit1 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                "result", "hit");
    miss1 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                 "result", "miss");
  }
  const double elapsed = to_seconds(clock.now() - t0);

  for (auto& n : nodes) n.engine->stop();
  for (auto& n : nodes) n.engine->join();

  RunResult r;
  r.topology = hops == 2 ? "pair" : "chain" + std::to_string(hops);
  r.payload = payload;
  r.sink_msgs = s1.msgs - s0.msgs;
  r.msgs_per_sec = static_cast<double>(s1.msgs - s0.msgs) / elapsed;
  r.bytes_per_sec = static_cast<double>(s1.bytes - s0.bytes) / elapsed;
  r.syscalls_per_msg =
      wire1 > wire0
          ? static_cast<double>(sys1 - sys0) / static_cast<double>(wire1 - wire0)
          : 0.0;
  const u64 acquires = (hit1 - hit0) + (miss1 - miss0);
  if (acquires > 0) {
    r.pool_hit_rate = static_cast<double>(hit1 - hit0) /
                      static_cast<double>(acquires);
  }
  return r;
}

/// The measured window for one run: large payloads move ~65x the bytes
/// per message, so at the same wall time the 64 KB rows used to settle
/// on only a few thousand messages — too few for a stable estimate.
double window_for(std::size_t payload, double base_secs) {
  return payload >= 64 * 1024 ? base_secs * 4 : base_secs;
}

/// Runs a configuration `reps` times and folds the runs into one result:
/// means under the historical field names, run-to-run stddev alongside.
RunResult run_config(std::size_t hops, std::size_t payload,
                     double base_secs, int reps) {
  std::vector<RunResult> runs;
  for (int i = 0; i < reps; ++i) {
    runs.push_back(run_case(hops, payload, window_for(payload, base_secs)));
  }
  RunResult agg = runs.front();
  if (runs.size() > 1) {
    double sum_m = 0;
    double sum_b = 0;
    double sum_s = 0;
    double hit_num = 0;
    int hit_n = 0;
    u64 msgs = 0;
    for (const auto& r : runs) {
      sum_m += r.msgs_per_sec;
      sum_b += r.bytes_per_sec;
      sum_s += r.syscalls_per_msg;
      msgs += r.sink_msgs;
      if (r.pool_hit_rate >= 0) {
        hit_num += r.pool_hit_rate;
        ++hit_n;
      }
    }
    const double n = static_cast<double>(runs.size());
    agg.msgs_per_sec = sum_m / n;
    agg.bytes_per_sec = sum_b / n;
    agg.syscalls_per_msg = sum_s / n;
    agg.sink_msgs = msgs;
    agg.pool_hit_rate = hit_n > 0 ? hit_num / hit_n : -1.0;
    double var_m = 0;
    double var_b = 0;
    for (const auto& r : runs) {
      var_m += (r.msgs_per_sec - agg.msgs_per_sec) *
               (r.msgs_per_sec - agg.msgs_per_sec);
      var_b += (r.bytes_per_sec - agg.bytes_per_sec) *
               (r.bytes_per_sec - agg.bytes_per_sec);
    }
    agg.msgs_per_sec_sd = std::sqrt(var_m / (n - 1));
    agg.bytes_per_sec_sd = std::sqrt(var_b / (n - 1));
  }
  agg.runs = static_cast<int>(runs.size());
  return agg;
}

void print_result(const RunResult& r) {
  print_row({r.topology, std::to_string(r.payload),
             strf("%.0f", r.msgs_per_sec), mb(r.bytes_per_sec),
             strf("%.3f", r.syscalls_per_msg),
             r.pool_hit_rate >= 0 ? strf("%.3f", r.pool_hit_rate) : "-",
             r.runs > 1 ? strf("%.1f%%", 100.0 * r.bytes_per_sec_sd /
                                             r.bytes_per_sec)
                        : "-"},
            12);
}

const RunResult* find(const std::vector<RunResult>& results,
                      const std::string& topology, std::size_t payload) {
  for (const auto& r : results) {
    if (r.topology == topology && r.payload == payload) return &r;
  }
  return nullptr;
}

void write_json(const std::string& path,
                const std::vector<RunResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n  \"runs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"topology\": \"%s\", \"payload_bytes\": %zu, "
                 "\"mode\": \"batched\", \"msgs_per_sec\": %.1f, "
                 "\"mbytes_per_sec\": %.3f, \"syscalls_per_msg\": %.4f, "
                 "\"sink_msgs\": %llu, \"runs\": %d, "
                 "\"msgs_per_sec_sd\": %.1f, \"mbytes_per_sec_sd\": %.3f",
                 r.topology.c_str(), r.payload, r.msgs_per_sec,
                 r.bytes_per_sec / 1e6, r.syscalls_per_msg,
                 static_cast<unsigned long long>(r.sink_msgs), r.runs,
                 r.msgs_per_sec_sd, r.bytes_per_sec_sd / 1e6);
    if (r.pool_hit_rate >= 0) {
      std::fprintf(f, ", \"pool_hit_rate\": %.4f", r.pool_hit_rate);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  const RunResult* chain1k = find(results, "chain4", 1024);
  const RunResult* chain64k = find(results, "chain4", 65536);
  std::string summary;
  if (chain1k != nullptr) {
    summary += strf("\"chain_1kb_batched_syscalls_per_msg\": %.4f",
                    chain1k->syscalls_per_msg);
  }
  if (chain64k != nullptr && chain64k->pool_hit_rate >= 0) {
    if (!summary.empty()) summary += ", ";
    summary += strf("\"chain_64kb_pool_hit_rate\": %.4f",
                    chain64k->pool_hit_rate);
  }
  if (!summary.empty()) {
    std::fprintf(f, ",\n  \"summary\": {%s}", summary.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_throughput.json";
  double secs = 1.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--secs") == 0 && i + 1 < argc) {
      secs = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out path] [--secs s] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header(
      "Wire-path batching: loopback pair + 4-node chain throughput",
      "batched scatter-gather sends + bulk decode + slab-pooled large "
      "frames (DESIGN.md §8)");
  print_row({"topology", "payload", "msgs/s", "MB/s", "sys/msg", "pool-hit",
             "sd"},
            12);

  std::vector<RunResult> results;
  const std::vector<std::size_t> payloads =
      smoke ? std::vector<std::size_t>{1024, 65536}
            : std::vector<std::size_t>{64, 1024, 65536};
  const double window = smoke ? 0.4 : secs;
  const int reps = smoke ? 1 : 3;
  for (const std::size_t hops : {std::size_t{2}, std::size_t{4}}) {
    if (smoke && hops == 2) continue;
    for (const std::size_t payload : payloads) {
      results.push_back(run_config(hops, payload, window, reps));
      print_result(results.back());
    }
  }

  write_json(out, results);

  bool fail = false;
  if (const RunResult* r = find(results, "chain4", 1024)) {
    std::printf("chain @ 1 KB: syscalls/msg %.3f\n", r->syscalls_per_msg);
    if (smoke && r->syscalls_per_msg >= 1.0) {
      std::fprintf(stderr, "FAIL: wire path did not beat 1 syscall/message\n");
      fail = true;
    }
  }
  if (const RunResult* r = find(results, "chain4", 65536)) {
    std::printf("chain @ 64 KB: pool hit rate %.3f\n", r->pool_hit_rate);
    // Guards the slab-pool fast path directly: without it every 64 KB
    // payload is a fresh allocation (DESIGN.md §8). Misses are bounded by
    // the slabs live at once, so a healthy run sits near 1.0 even in a
    // short smoke window.
    if (smoke && r->pool_hit_rate < 0.95) {
      std::fprintf(stderr,
                   "FAIL: slab pool served %.3f of 64 KB payloads from its "
                   "freelist (< 0.95)\n",
                   r->pool_hit_rate);
      fail = true;
    }
  }
  return fail ? 1 : 0;
}
