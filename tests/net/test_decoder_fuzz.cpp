// Seeded mutation fuzzing of the decoders that run on a shared reactor
// worker: a crash or a hang in any of them would take down every node on
// that worker. Each decoder gets a corpus of valid encodings, and every
// iteration feeds it a mutated copy (bit flips, interesting bytes,
// inserted, deleted, duplicated and spliced ranges, truncation). Besides
// "no crash, no hang" (sanitizers catch memory and UB errors), each
// decoder must keep a round-trip property:
//   * decode_hello accepts exactly the hellos encode_hello reproduces;
//   * FrameReader, fed through a socketpair in random pieces, decodes a
//     stream whose re-encoding is a prefix of the input, and stops on a
//     header decode_header rejects (corrupt) or a truncated last frame;
//   * NodeReport::parse and MetricsSnapshot::parse accept what their own
//     serialize() emits for anything they accepted, unchanged.
//
// The iteration count per decoder comes from IOV_FUZZ_ITERS (default
// 20000, the tier-1 run; the slow run sets 10^6), the seed from
// IOV_FUZZ_SEED (default 1). A failure prints the seed, iteration and
// input that broke it.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/report.h"
#include "message/codec.h"
#include "net/framing.h"
#include "obs/metrics.h"

namespace iov {
namespace {

using Bytes = std::vector<u8>;

u64 env_or(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

u64 iterations() { return env_or("IOV_FUZZ_ITERS", 20000); }
u64 seed() { return env_or("IOV_FUZZ_SEED", 1); }

/// Printable form of a failing input.
std::string show(const Bytes& b) {
  std::string out;
  for (const u8 c : b) {
    out += c >= 0x20 && c < 0x7f && c != '\\' ? std::string(1, char(c))
                                             : strf("\\x%02x", c);
  }
  return out;
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

/// Applies 1-8 random edits to `data`; `corpus` supplies splice material.
/// Inputs are capped at `max_size` bytes.
Bytes mutate(Rng& rng, Bytes data, const std::vector<Bytes>& corpus,
             std::size_t max_size) {
  // Boundary values for binary fields and the delimiters of the text
  // formats, so edits often land on something a parser branches on.
  static const u8 kInteresting[] = {0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff,
                                    '0',  '9',  '-',  '.',  ',',  ';',
                                    ':',  '=',  '|',  '/',  '{',  '}',
                                    '\n', ' ',  'e',  'i',  'n'};
  const int edits = 1 + static_cast<int>(rng.below(8));
  for (int e = 0; e < edits; ++e) {
    const std::size_t n = data.size();
    const auto at = [&](std::size_t bound) {
      return static_cast<std::size_t>(rng.below(bound));
    };
    switch (rng.below(7)) {
      case 0:  // flip one bit
        if (n > 0) data[at(n)] ^= static_cast<u8>(1u << rng.below(8));
        break;
      case 1:  // overwrite one byte with an interesting value
        if (n > 0) data[at(n)] = kInteresting[at(sizeof(kInteresting))];
        break;
      case 2:  // insert a random byte
        data.insert(data.begin() + static_cast<std::ptrdiff_t>(at(n + 1)),
                    static_cast<u8>(rng.below(256)));
        break;
      case 3:  // delete a range
        if (n > 0) {
          const std::size_t from = at(n);
          const std::size_t len = 1 + at(std::min<std::size_t>(n - from, 32));
          data.erase(data.begin() + static_cast<std::ptrdiff_t>(from),
                     data.begin() + static_cast<std::ptrdiff_t>(from + len));
        }
        break;
      case 4:  // duplicate a range in place
        if (n > 0) {
          const std::size_t from = at(n);
          const std::size_t len = 1 + at(std::min<std::size_t>(n - from, 64));
          const Bytes piece(data.begin() + static_cast<std::ptrdiff_t>(from),
                            data.begin() +
                                static_cast<std::ptrdiff_t>(from + len));
          data.insert(data.begin() + static_cast<std::ptrdiff_t>(at(n + 1)),
                      piece.begin(), piece.end());
        }
        break;
      case 5:  // truncate
        if (n > 0) data.resize(at(n));
        break;
      default: {  // splice a range of another corpus entry
        const Bytes& other = corpus[at(corpus.size())];
        if (other.empty()) break;
        const std::size_t from = at(other.size());
        const std::size_t len = 1 + at(other.size() - from);
        data.insert(data.begin() + static_cast<std::ptrdiff_t>(at(n + 1)),
                    other.begin() + static_cast<std::ptrdiff_t>(from),
                    other.begin() + static_cast<std::ptrdiff_t>(from + len));
        break;
      }
    }
  }
  if (data.size() > max_size) data.resize(max_size);
  return data;
}

/// Runs `check` on `iterations()` mutants of the corpus. `check` returns
/// an empty string when the input passed, else what went wrong.
template <typename Check>
void fuzz(const std::vector<Bytes>& corpus, std::size_t max_size,
          u64 salt, Check check) {
  Rng rng(seed() * 0x9e3779b97f4a7c15ULL + salt);
  const u64 n = iterations();
  for (u64 i = 0; i < n; ++i) {
    const Bytes& base = corpus[rng.below(corpus.size())];
    const Bytes input = rng.below(16) == 0 ? base
                                           : mutate(rng, base, corpus,
                                                    max_size);
    const std::string failure = check(rng, input);
    if (!failure.empty()) {
      FAIL() << failure << "\n  seed " << seed() << ", iteration " << i
             << ", input (" << input.size() << " bytes): " << show(input);
    }
  }
}

// --- decode_hello ------------------------------------------------------------

TEST(DecoderFuzz, Hello) {
  std::vector<Bytes> corpus;
  for (const auto kind : {ConnKind::kPersistent, ConnKind::kControl}) {
    for (const NodeId id : {NodeId::loopback(1), NodeId::loopback(65535),
                            NodeId(0xc0a80001u, 7000), NodeId()}) {
      const auto h = encode_hello(Hello{kind, id});
      corpus.emplace_back(h.begin(), h.end());
    }
  }
  fuzz(corpus, kHelloBytes, 1, [](Rng&, const Bytes& input) -> std::string {
    std::array<u8, kHelloBytes> bytes{};  // short inputs read as zeros
    std::copy(input.begin(), input.end(), bytes.begin());
    const auto hello = decode_hello(bytes.data());
    const u32 kind = codec::read_u32(bytes.data() + 4);
    const bool valid = codec::read_u32(bytes.data()) == 0x494f5631 &&
                       (kind == 1 || kind == 2) &&
                       codec::read_u32(bytes.data() + 12) <= 0xffff;
    if (hello.has_value() != valid) {
      return valid ? "valid hello rejected" : "invalid hello accepted";
    }
    if (hello && encode_hello(*hello) != bytes) {
      return "accepted hello does not re-encode to its bytes";
    }
    return {};
  });
}

// --- FrameReader, header path ---------------------------------------------------

Bytes encode_frames(const std::vector<MsgPtr>& msgs) {
  Bytes out;
  for (const auto& m : msgs) {
    const auto header = codec::encode_header(*m);
    out.insert(out.end(), header.begin(), header.end());
    const auto payload = m->payload()->view();
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

/// Feeds `input` through a socketpair in random pieces into a
/// non-blocking FrameReader, decoding what has arrived after each piece,
/// then closes the stream and decodes to the end.
std::string check_frames(Rng& rng, const Bytes& input, SlabPool& pool) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return "socketpair";
  TcpConn writer{Fd(sv[0])};
  TcpConn conn{Fd(sv[1])};
  if (!writer.set_nonblocking(true) || !conn.set_nonblocking(true)) {
    return "set_nonblocking";
  }
  static const std::size_t kChunks[] = {64, 256, 4096,
                                        FrameReader::kDefaultChunkBytes};
  FrameReader reader(conn, pool, kChunks[rng.below(4)]);
  std::vector<MsgPtr> got;
  bool ended = false;  // the reader failed for good (corrupt or EOF)
  const auto drain = [&] {
    while (!ended) {
      MsgPtr m = reader.next();
      if (m) {
        got.push_back(std::move(m));
        continue;
      }
      ended = !reader.would_block();
      return;
    }
  };
  for (std::size_t off = 0; off < input.size() && !ended;) {
    const std::size_t piece = 1 + rng.below(input.size() - off);
    iovec v{const_cast<u8*>(input.data()) + off, piece};
    const long n = writer.writev_some(&v, 1);
    if (n < 0) return "socketpair write failed";
    off += static_cast<std::size_t>(n);
    drain();  // n == 0: the socket is full until the reader drains it
  }
  writer.shutdown_write();
  drain();
  if (!ended) return "reader still waiting after EOF";
  if (reader.next() != nullptr) return "a failed reader decoded again";

  const Bytes decoded = encode_frames(got);
  if (decoded.size() > input.size() ||
      !std::equal(decoded.begin(), decoded.end(), input.begin())) {
    return "decoded frames are not a prefix of the input";
  }
  const std::size_t rest = input.size() - decoded.size();
  const u8* tail = input.data() + decoded.size();
  const auto header =
      rest >= Msg::kHeaderSize ? codec::decode_header(tail) : std::nullopt;
  if (reader.corrupt()) {
    if (rest < Msg::kHeaderSize || header) {
      return "corrupt verdict on a decodable header";
    }
  } else if (rest >= Msg::kHeaderSize &&
             (!header || rest >= Msg::kHeaderSize + header->payload_size)) {
    return "stream ended early without a corrupt verdict";
  }
  return {};
}

TEST(DecoderFuzz, FrameReaderHeaderPath) {
  const NodeId origin(0x0a000001u, 4000);
  std::vector<Bytes> corpus;
  corpus.push_back(encode_frames(
      {Msg::control(MsgType::kBoot, origin, kControlApp),
       Msg::text_msg(MsgType::kReport, origin, kControlApp, "node=x\n"),
       Msg::data(origin, 1, 7, Buffer::pattern(100, 7))}));
  std::vector<MsgPtr> small;
  for (u32 i = 0; i < 40; ++i) {
    small.push_back(Msg::data(origin, 2, i, Buffer::pattern(i * 7 % 90, i)));
  }
  corpus.push_back(encode_frames(small));
  corpus.push_back(encode_frames(
      {Msg::data(origin, 3, 1, Buffer::pattern(300, 1)),
       Msg::data(origin, 3, 2, Buffer::pattern(70 * 1024, 2)),
       Msg::control(MsgType::kControl, origin, kControlApp, 5, -5, "t")}));
  corpus.push_back({});
  SlabPool pool;  // shared, as a node's links share theirs
  fuzz(corpus, 96 * 1024, 2, [&](Rng& rng, const Bytes& input) {
    return check_frames(rng, input, pool);
  });
}

// --- Text decoders ------------------------------------------------------------------

std::string metrics_wire() {
  obs::MetricsRegistry registry;
  registry.counter("iov_c_total").inc(42);
  registry.counter("iov_link_bytes_total", {{"peer", "127.0.0.1:5"},
                                            {"dir", "up"}})
      .inc(1ULL << 40);
  registry.gauge("iov_g", {{"k", "v"}}).set(-17);
  auto& h = registry.histogram("iov_h_seconds", {{"a", "b"}});
  h.observe(0.0001);
  h.observe(0.25);
  h.observe(3.5);
  return registry.snapshot().serialize();
}

std::vector<Bytes> report_corpus() {
  engine::NodeReport r;
  r.node = NodeId(0x7f000001u, 6001);
  r.uptime = 123456789;
  r.upstreams.push_back({NodeId::loopback(6002), 1234.5, 99999, 3, 4, 10});
  r.downstreams.push_back({NodeId::loopback(6003), 0.0, 0, 0, 0, 10});
  r.downstreams.push_back({NodeId::loopback(6004), 1e9, 1ULL << 50, 7, 9, 9});
  r.source_apps = {1, 4294967295u};
  r.joined_apps = {2};
  r.algorithm_status = "relay: 2 children";
  std::vector<Bytes> corpus{to_bytes(r.serialize())};  // v1
  r.metrics_wire = metrics_wire();
  corpus.push_back(to_bytes(r.serialize()));           // v2
  corpus.push_back(to_bytes("node=127.0.0.1:1\n"));
  corpus.push_back(to_bytes(
      "node=255.255.255.255:65535\nuptime=-9223372036854775808\n"
      "up=0.0.0.0:0,1e308,18446744073709551615,18446744073709551615,"
      "18446744073709551615,0\ndown=1.2.3.4:5,nan,0,0,0,0\n"
      "src=4294967295\njoined=0\nalg=\nver=65535\nmetrics=c:x,1\n"));
  return corpus;
}

TEST(DecoderFuzz, NodeReportV1AndV2) {
  fuzz(report_corpus(), 4096, 3, [](Rng&, const Bytes& input) -> std::string {
    const std::string text(input.begin(), input.end());
    const auto parsed = engine::NodeReport::parse(text);
    if (!parsed) return {};
    const std::string once = parsed->serialize();
    const auto again = engine::NodeReport::parse(once);
    if (!again) return "serialize() of an accepted report is rejected";
    if (again->serialize() != once) {
      return "report changes on a second round trip: " + once + " -> " +
             again->serialize();
    }
    return {};
  });
}

bool same_number(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Field-by-field equality; NaN equals NaN.
bool same_sample(const obs::MetricSample& a, const obs::MetricSample& b) {
  if (a.name != b.name || a.kind != b.kind || a.labels != b.labels ||
      !same_number(a.value, b.value) || a.hist.bounds != b.hist.bounds ||
      a.hist.counts != b.hist.counts || a.hist.count != b.hist.count) {
    return false;
  }
  return same_number(a.hist.sum, b.hist.sum);
}

TEST(DecoderFuzz, MetricsSnapshot) {
  std::vector<Bytes> corpus{to_bytes(metrics_wire()),
                            to_bytes("c:x,1"), to_bytes("h:y,inf:0,0,0"),
                            to_bytes("z:unknown,1|g:n{a=b},-3"),
                            to_bytes("c:max,18446744073709551615|"
                                     "g:hi,9223372036854775807|"
                                     "g:lo,-9223372036854775807")};
  fuzz(corpus, 4096, 4, [](Rng&, const Bytes& input) -> std::string {
    const std::string line(input.begin(), input.end());
    obs::MetricsSnapshot snap;
    if (!obs::MetricsSnapshot::parse(line, &snap)) return {};
    const std::string once = snap.serialize();
    obs::MetricsSnapshot again;
    if (!obs::MetricsSnapshot::parse(once, &again)) {
      return "serialize() of an accepted snapshot is rejected: " + once;
    }
    if (again.samples.size() != snap.samples.size()) {
      return "round trip changes the sample count: " + once;
    }
    for (std::size_t i = 0; i < snap.samples.size(); ++i) {
      if (!same_sample(snap.samples[i], again.samples[i])) {
        return strf("round trip changes sample %zu: ", i) + once;
      }
    }
    return {};
  });
}

}  // namespace
}  // namespace iov
