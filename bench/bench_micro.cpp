// Microbenchmarks (google-benchmark) for the hot paths behind the
// engine's performance claims (§2.4): header encode/decode, message
// construction and zero-copy clone, bounded-queue handoff, token-bucket
// accounting, GF(2^8) coding kernels, and the simulator's event loop.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "coding/decoder.h"
#include "coding/gf256.h"
#include "common/bounded_queue.h"
#include "common/clock.h"
#include "common/rng.h"
#include "message/codec.h"
#include "message/msg.h"
#include "net/framing.h"
#include "net/socket.h"
#include "net/token_bucket.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace iov {
namespace {

void BM_HeaderEncode(benchmark::State& state) {
  const auto m = Msg::data(NodeId::loopback(1234), 7, 42,
                           Buffer::pattern(5000, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::encode_header(*m));
  }
}
BENCHMARK(BM_HeaderEncode);

void BM_HeaderDecode(benchmark::State& state) {
  const auto m = Msg::data(NodeId::loopback(1234), 7, 42,
                           Buffer::pattern(5000, 1));
  const auto bytes = codec::encode_header(*m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::decode_header(bytes.data()));
  }
}
BENCHMARK(BM_HeaderDecode);

void BM_MsgConstruct(benchmark::State& state) {
  const auto payload = Buffer::pattern(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Msg::data(NodeId::loopback(1), 1, 0, payload));
  }
}
BENCHMARK(BM_MsgConstruct)->Arg(100)->Arg(5000);

void BM_MsgCloneZeroCopy(benchmark::State& state) {
  const auto m = Msg::data(NodeId::loopback(1), 1, 0, Buffer::pattern(5000, 9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->clone());
  }
}
BENCHMARK(BM_MsgCloneZeroCopy);

void BM_BoundedQueuePushPop(benchmark::State& state) {
  BoundedQueue<MsgPtr> queue(16);
  const auto m = Msg::data(NodeId::loopback(1), 1, 0, Buffer::pattern(5000, 9));
  for (auto _ : state) {
    queue.try_push(m);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_BoundedQueuePushPop);

void BM_TokenBucketAcquire(benchmark::State& state) {
  TokenBucket bucket(1e9, 1e9);
  TimePoint now = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(bucket.acquire(5024, now));
  }
}
BENCHMARK(BM_TokenBucketAcquire);

void BM_GfMul(benchmark::State& state) {
  Rng rng(1);
  const u8 a = static_cast<u8>(rng.below(256));
  u8 b = 1;
  for (auto _ : state) {
    b = coding::gf_mul(a | 1, b | 1);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_GfMul);

void BM_GfAxpy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<u8> dst(n, 3);
  std::vector<u8> src(n, 7);
  for (auto _ : state) {
    coding::gf_axpy(dst.data(), src.data(), 29, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_GfAxpy)->Arg(1024)->Arg(5000)->Arg(65536);

void BM_GaussianDecode(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlock = 5000;
  Rng rng(2);
  std::vector<std::vector<u8>> blocks(k, std::vector<u8>(kBlock));
  for (auto& block : blocks) {
    for (auto& byte : block) byte = static_cast<u8>(rng.below(256));
  }
  std::vector<std::vector<u8>> coeffs;
  std::vector<std::vector<u8>> rows;
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<u8> c(k);
    for (auto& v : c) v = static_cast<u8>(rng.below(256));
    coeffs.push_back(c);
    rows.push_back(coding::GaussianDecoder::combine(blocks, c));
  }
  for (auto _ : state) {
    coding::GaussianDecoder dec(k, kBlock);
    for (std::size_t i = 0; i < k; ++i) {
      dec.add_row(coeffs[i], rows[i].data(), rows[i].size());
    }
    if (dec.complete()) benchmark::DoNotOptimize(dec.block(0));
  }
}
BENCHMARK(BM_GaussianDecode)->Arg(2)->Arg(8)->Arg(32);

// The observability layer rides every hot path (switch, links), so
// its primitives must stay in the low-nanosecond range.
void BM_MetricsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("iov_bench_counter");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("iov_bench_histogram");
  double x = 1e-6;
  for (auto _ : state) {
    h.observe(x);
    x = x < 1.0 ? x * 1.5 : 1e-6;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_MetricsSnapshotSerialize(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 8; ++i) {
    registry.counter("iov_bench_counter", {{"i", std::to_string(i)}}).inc(i);
    registry.histogram("iov_bench_histogram", {{"i", std::to_string(i)}})
        .observe(1e-3 * i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot().serialize());
  }
}
BENCHMARK(BM_MetricsSnapshotSerialize);

void BM_MetricsSnapshotParse(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 8; ++i) {
    registry.counter("iov_bench_counter", {{"i", std::to_string(i)}}).inc(i);
    registry.histogram("iov_bench_histogram", {{"i", std::to_string(i)}})
        .observe(1e-3 * i);
  }
  const std::string wire = registry.snapshot().serialize();
  for (auto _ : state) {
    obs::MetricsSnapshot snap;
    obs::MetricsSnapshot::parse(wire, &snap);
    benchmark::DoNotOptimize(snap.samples.size());
  }
}
BENCHMARK(BM_MetricsSnapshotParse);

// --- Wire path: the batched scatter-gather + bulk-decode path
// (DESIGN.md §8), over real loopback TCP. One iteration moves a fixed batch of messages writer->reader;
// the batch is sized to stay inside the kernel socket buffers so a
// single thread can write then read without deadlock.

struct WirePair {
  std::optional<TcpListener> listener;
  std::optional<TcpConn> client;
  std::optional<TcpConn> server;

  bool open() {
    listener = TcpListener::listen(0);
    if (!listener) return false;
    client = TcpConn::connect(NodeId::loopback(listener->port()),
                              seconds(1.0));
    if (!client) return false;
    // The listener is non-blocking: retry for up to a second.
    for (int i = 0; i < 100 && !server; ++i) {
      server = listener->accept();
      if (!server) sleep_for(millis(10));
    }
    return server.has_value() && server->set_nonblocking(false);
  }
};

std::vector<MsgPtr> wire_msgs(std::size_t payload) {
  // Keep a full batch under ~32 KB of in-flight bytes.
  const std::size_t n = std::max<std::size_t>(
      1, std::min<std::size_t>(kMaxWireBatch,
                               (32 * 1024) / (payload + Msg::kHeaderSize)));
  std::vector<MsgPtr> msgs;
  for (std::size_t i = 0; i < n; ++i) {
    msgs.push_back(Msg::data(NodeId::loopback(1), 1, static_cast<u32>(i),
                             Buffer::pattern(payload, static_cast<u32>(i))));
  }
  return msgs;
}

void BM_WireRoundTripBatched(benchmark::State& state) {
  WirePair pair;
  if (!pair.open()) {
    state.SkipWithError("loopback pair failed");
    return;
  }
  const auto msgs = wire_msgs(static_cast<std::size_t>(state.range(0)));
  SlabPool pool;
  FrameReader reader(*pair.server, pool);
  for (auto _ : state) {
    if (!write_batch(*pair.client, msgs.data(), msgs.size())) {
      state.SkipWithError("write failed");
      return;
    }
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      benchmark::DoNotOptimize(reader.next());
    }
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(msgs.size()));
  state.SetBytesProcessed(
      static_cast<i64>(state.iterations()) *
      static_cast<i64>(msgs.size() * (state.range(0) + Msg::kHeaderSize)));
}
BENCHMARK(BM_WireRoundTripBatched)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule_at(i * 1000, [&fired] { ++fired; });
    }
    queue.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

}  // namespace
}  // namespace iov

BENCHMARK_MAIN();
