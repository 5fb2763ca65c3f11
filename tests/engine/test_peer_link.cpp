// PeerLink wire tests over real loopback TCP, with a raw socket as the
// peer:
//   * golden bytes — a fixed message sequence pushed through a dialing
//     PeerLink must produce exactly the byte stream docs/PROTOCOLS.md
//     specifies (16-byte hello, then 24-byte headers and payloads), and
//     the same bytes written into an accepting PeerLink must decode back
//     to the same messages: data into recv_buffer(), control to the owner;
//   * the send tail — a send buffer filled once and notified once must
//     drain completely to a peer that reads slowly, with no further help
//     from the engine;
//   * the per-message cost — with no bandwidth limit set, a receiving
//     link reads the clock once per batch it hands over, not per message.
// A link lives on its worker: the tests create, drive and destroy it
// there through Worker::call.
#include "engine/peer_link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "engine_test_util.h"
#include "../net/net_test_util.h"
#include "message/codec.h"
#include "net/reactor/reactor.h"
#include "obs/metric_names.h"

namespace iov::engine {
namespace {

using reactor::Reactor;
using test::wait_until;

/// Records control messages for inspection.
class RecordingSink final : public LinkOwner {
 public:
  void on_link_message(PeerLink&, MsgPtr m) override {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(m));
  }
  void on_link_failed(PeerLink&, MsgType) override { failed_.store(true); }
  bool failed() const { return failed_.load(); }

  std::vector<MsgPtr> posted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return posted_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<MsgPtr> posted_;
  std::atomic<bool> failed_{false};
};

/// Everything a bare PeerLink needs besides its socket.
struct Fixture {
  Reactor pool{1};
  reactor::Worker& worker = pool.pick();
  SlabPool slabs;
  obs::MetricsRegistry metrics;
  BandwidthEmulator bandwidth;
  RecordingSink sink;
  EngineConfig config;
  const Clock* clock = &RealClock::instance();
  LinkOwner* owner = &sink;

  /// Creates the link on the worker; pushes `queued` into its send
  /// buffer, then starts it and notifies it once.
  std::unique_ptr<PeerLink> link(NodeId self, NodeId peer, TcpConn conn,
                                 bool dial_pending,
                                 const std::vector<MsgPtr>& queued = {}) {
    std::unique_ptr<PeerLink> out;
    worker.call([&] {
      out = std::make_unique<PeerLink>(self, peer, std::move(conn), config,
                                       bandwidth, *clock, *owner, metrics,
                                       slabs, worker, dial_pending);
      for (const auto& m : queued) out->send_buffer().try_push(m);
      out->start();
      out->notify_send();
    });
    return out;
  }

  /// Destroys the link on its worker (teardown sends the peer EOF).
  void destroy(std::unique_ptr<PeerLink>& link) {
    worker.call([&] { link.reset(); });
  }
};

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

const NodeId kDialer(0x7f000001u, 4242);       // 127.0.0.1:4242
const NodeId kOrigin(0x0a000001u, 0x1234);     // 10.0.0.1:4660
constexpr u32 kGoldenApp = 7;

/// Deterministic payload bytes, position dependent.
std::vector<u8> golden_payload(std::size_t n) {
  std::vector<u8> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<u8>(i * 7 + 3);
  }
  return bytes;
}

/// The sequence the dialing link sends, in order: data frames of 0, 1,
/// 1024 and 65537 bytes, with a control message between the second and
/// third.
std::vector<MsgPtr> golden_msgs() {
  return {
      Msg::data(kOrigin, kGoldenApp, 0x01020304, Buffer::empty_buffer()),
      Msg::data(kOrigin, kGoldenApp, 0x01020305,
                Buffer::wrap(golden_payload(1))),
      Msg::control(MsgType::kControl, kOrigin, kControlApp, 7, -2, "hi"),
      Msg::data(kOrigin, kGoldenApp, 0x01020306,
                Buffer::wrap(golden_payload(1024))),
      Msg::data(kOrigin, kGoldenApp, 0x01020307,
                Buffer::wrap(golden_payload(64 * 1024 + 1))),
  };
}

/// The stream golden_msgs() must produce, written out field by field from
/// the tables in docs/PROTOCOLS.md (all integers big-endian).
std::vector<u8> golden_stream() {
  std::vector<u8> s = {
      // hello: magic "IOV1", kind 1 (persistent), ip 127.0.0.1, port 4242
      0x49, 0x4f, 0x56, 0x31, 0x00, 0x00, 0x00, 0x01,
      0x7f, 0x00, 0x00, 0x01, 0x00, 0x00, 0x10, 0x92,
      // data, origin 10.0.0.1:4660, app 7, seq 0x01020304, 0 bytes
      0x00, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x12, 0x34, 0x00, 0x00, 0x00, 0x07,
      0x01, 0x02, 0x03, 0x04, 0x00, 0x00, 0x00, 0x00,
      // data, seq 0x01020305, 1 byte
      0x00, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x12, 0x34, 0x00, 0x00, 0x00, 0x07,
      0x01, 0x02, 0x03, 0x05, 0x00, 0x00, 0x00, 0x01,
      0x03,
      // control (0x010b), app 0, seq 0, 10 bytes: param0 7, param1 -2, "hi"
      0x00, 0x00, 0x01, 0x0b, 0x0a, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x12, 0x34, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a,
      0x00, 0x00, 0x00, 0x07, 0xff, 0xff, 0xff, 0xfe, 0x68, 0x69,
      // data, seq 0x01020306, 1024 bytes
      0x00, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x12, 0x34, 0x00, 0x00, 0x00, 0x07,
      0x01, 0x02, 0x03, 0x06, 0x00, 0x00, 0x04, 0x00,
  };
  const auto kb = golden_payload(1024);
  s.insert(s.end(), kb.begin(), kb.end());
  const std::vector<u8> big_header = {
      // data, seq 0x01020307, 65537 bytes
      0x00, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x12, 0x34, 0x00, 0x00, 0x00, 0x07,
      0x01, 0x02, 0x03, 0x07, 0x00, 0x01, 0x00, 0x01,
  };
  s.insert(s.end(), big_header.begin(), big_header.end());
  const auto big = golden_payload(64 * 1024 + 1);
  s.insert(s.end(), big.begin(), big.end());
  return s;
}

/// Index of the first differing byte, or -1 when equal.
long first_mismatch(const std::vector<u8>& a, const std::vector<u8>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

TEST(PeerLinkGolden, DialingLinkWritesTheDocumentedBytes) {
  Fixture fx;
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  const NodeId acceptor = NodeId::loopback(listener->port());
  auto conn = TcpConn::connect_start(acceptor);
  ASSERT_TRUE(conn.has_value());
  auto link = fx.link(kDialer, acceptor, std::move(*conn),
                      /*dial_pending=*/true, golden_msgs());

  ASSERT_TRUE(test::wait_readable(listener->fd(), seconds(2.0)));
  auto raw = listener->accept();
  ASSERT_TRUE(raw.has_value());
  ASSERT_TRUE(raw->set_nonblocking(false));
  const std::vector<u8> want = golden_stream();
  std::vector<u8> got(want.size());
  ASSERT_TRUE(raw->read_all(got.data(), got.size()));
  EXPECT_EQ(first_mismatch(got, want), -1);

  // Nothing follows the last frame: after teardown the peer sees EOF.
  fx.destroy(link);
  u8 extra = 0;
  EXPECT_EQ(raw->read_some(&extra, 1), 0);
}

TEST(PeerLinkGolden, AcceptingLinkDecodesTheDocumentedBytes) {
  Fixture fx;
  // Socket buffers large enough to hold the whole ~66 KB stream, so it
  // can be written before the link starts reading.
  constexpr int kSocketBytes = 512 * 1024;
  auto listener = TcpListener::listen(0, true, 8, kSocketBytes);
  ASSERT_TRUE(listener.has_value());
  const NodeId self = NodeId::loopback(listener->port());
  auto raw = TcpConn::connect(self, seconds(1.0), kSocketBytes);
  ASSERT_TRUE(raw.has_value());
  const std::vector<u8> stream = golden_stream();
  ASSERT_TRUE(raw->write_all(stream.data(), stream.size()));

  ASSERT_TRUE(test::wait_readable(listener->fd(), seconds(1.0)));
  auto accepted = listener->accept();
  ASSERT_TRUE(accepted.has_value());
  // The engine consumes the hello before it hands the socket to a link.
  ASSERT_TRUE(accepted->set_nonblocking(false));
  const auto hello = test::read_hello(*accepted);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->kind, ConnKind::kPersistent);
  EXPECT_EQ(hello->sender, kDialer);
  ASSERT_TRUE(accepted->set_nonblocking(true));
  auto link = fx.link(self, hello->sender, std::move(*accepted),
                      /*dial_pending=*/false);

  ASSERT_TRUE(wait_until([&] {
    std::size_t buffered = 0;
    fx.worker.call([&] { buffered = link->recv_buffer().size(); });
    return buffered == 4 && fx.sink.posted().size() == 1;
  }));

  std::vector<MsgPtr> sent = golden_msgs();
  const MsgPtr control = sent[2];
  sent.erase(sent.begin() + 2);
  std::vector<Inbound> received;
  fx.worker.call([&] { link->recv_buffer().try_pop_batch(received, 8); });
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const MsgPtr& want = sent[i];
    const Msg& got = *received[i].msg;
    EXPECT_EQ(got.type(), MsgType::kData);
    EXPECT_EQ(got.origin(), kOrigin);
    EXPECT_EQ(got.app(), kGoldenApp);
    EXPECT_EQ(got.seq(), want->seq());
    EXPECT_EQ(got.payload()->bytes(), want->payload()->bytes());
  }
  const MsgPtr got = fx.sink.posted()[0];
  EXPECT_EQ(got->type(), MsgType::kControl);
  EXPECT_EQ(got->origin(), kOrigin);
  EXPECT_EQ(got->app(), kControlApp);
  EXPECT_EQ(got->param(0), 7);
  EXPECT_EQ(got->param(1), -2);
  EXPECT_EQ(got->param_text(), "hi");
  EXPECT_EQ(got->payload()->bytes(), control->payload()->bytes());
  fx.destroy(link);
}

// ---------------------------------------------------------------------------
// Crossing dial, surviving side
// ---------------------------------------------------------------------------

/// A dialed link whose peer is played by raw sockets: `main` is the
/// accepted end of the link's own dial, `crossing` the peer's end of a
/// second connection whose other end the link drains.
struct Crossing {
  std::unique_ptr<PeerLink> link;
  std::optional<TcpConn> main;
  std::optional<TcpConn> crossing;
  std::optional<TcpConn> crossing_accepted;  // handed to drain_crossing
};

bool open_crossing(Fixture& fx, Crossing* c) {
  auto l1 = TcpListener::listen(0);
  auto l2 = TcpListener::listen(0);
  if (!l1 || !l2) return false;
  const NodeId peer = NodeId::loopback(l1->port());
  auto dial = TcpConn::connect_start(peer);
  if (!dial) return false;
  c->link = fx.link(NodeId::loopback(1), peer, std::move(*dial),
                    /*dial_pending=*/true);
  if (!test::wait_readable(l1->fd(), seconds(2.0))) return false;
  c->main = l1->accept();
  if (!c->main || !c->main->set_nonblocking(false) ||
      !test::read_hello(*c->main)) {
    return false;
  }
  c->crossing = TcpConn::connect(NodeId::loopback(l2->port()), seconds(1.0));
  if (!c->crossing || !test::wait_readable(l2->fd(), seconds(1.0))) {
    return false;
  }
  c->crossing_accepted = l2->accept();
  return c->crossing_accepted.has_value();
}

MsgPtr numbered(u32 seq) {
  return Msg::data(NodeId::loopback(2), 1, seq, Buffer::pattern(100, seq));
}

/// Waits for `n` messages in the link's receive buffer and pops them.
std::vector<u32> received(Fixture& fx, PeerLink& link, std::size_t n) {
  std::vector<u32> seqs;
  wait_until([&] {
    std::vector<Inbound> batch;
    fx.worker.call([&] { link.recv_buffer().try_pop_batch(batch, 64); });
    for (const auto& in : batch) seqs.push_back(in.msg->seq());
    return seqs.size() >= n;
  });
  return seqs;
}

TEST(PeerLinkCrossing, CrossingFoundBeforeAnyFrameIsDeliveredFirst) {
  Fixture fx;
  Crossing c;
  ASSERT_TRUE(open_crossing(fx, &c));
  fx.worker.call([&] { c.link->drain_crossing(std::move(*c.crossing_accepted)); });
  // The surviving link's frames are on the wire first, yet the crossing
  // connection's older frames must be delivered ahead of them.
  for (u32 seq : {10u, 11u, 12u}) ASSERT_TRUE(test::write_frame(*c.main, numbered(seq)));
  sleep_for(millis(20));
  for (u32 seq : {0u, 1u}) ASSERT_TRUE(test::write_frame(*c.crossing, numbered(seq)));
  c.crossing->shutdown_write();
  EXPECT_EQ(received(fx, *c.link, 5),
            (std::vector<u32>{0, 1, 10, 11, 12}));
  EXPECT_FALSE(fx.sink.failed());
  fx.destroy(c.link);
}

TEST(PeerLinkCrossing, CrossingFoundLateLosesNothingAndKeepsTheLink) {
  Fixture fx;
  Crossing c;
  ASSERT_TRUE(open_crossing(fx, &c));
  for (u32 seq : {10u, 11u}) ASSERT_TRUE(test::write_frame(*c.main, numbered(seq)));
  ASSERT_EQ(received(fx, *c.link, 2), (std::vector<u32>{10, 11}));
  // Frames were delivered already: the crossing is still read to EOF
  // first, and its EOF ends only the crossing connection, not the link.
  fx.worker.call([&] { c.link->drain_crossing(std::move(*c.crossing_accepted)); });
  for (u32 seq : {0u, 1u}) ASSERT_TRUE(test::write_frame(*c.crossing, numbered(seq)));
  c.crossing->shutdown_write();
  ASSERT_TRUE(test::write_frame(*c.main, numbered(12)));
  EXPECT_EQ(received(fx, *c.link, 3), (std::vector<u32>{0, 1, 12}));
  ASSERT_TRUE(test::write_frame(*c.main, numbered(13)));  // the link lives on
  EXPECT_EQ(received(fx, *c.link, 1), (std::vector<u32>{13}));
  EXPECT_FALSE(fx.sink.failed());
  fx.destroy(c.link);
}

// ---------------------------------------------------------------------------
// Send tail
// ---------------------------------------------------------------------------

// 2 MB of 1 KB frames against 64 KB socket buffers read 4 KB at a time:
// the link hits EAGAIN hundreds of times per cycle. Before the fix, a
// broken build stranded the tail within the first few cycles.
constexpr std::size_t kTailMsgs = 2048;
constexpr std::size_t kTailPayload = 1000;
constexpr int kTailCycles = 200;

/// One cycle: fill the send buffer, notify once, read slowly. Returns the
/// number of whole frames that arrived, in order, before the stream went
/// quiet.
std::size_t run_tail_cycle(Fixture& fx) {
  constexpr int kSocketBytes = 64 * 1024;
  auto listener = TcpListener::listen(0, true, 8, kSocketBytes);
  if (!listener) return 0;
  auto conn = TcpConn::connect(NodeId::loopback(listener->port()),
                               seconds(1.0), kSocketBytes);
  if (!conn || !test::wait_readable(listener->fd(), seconds(1.0))) return 0;
  auto raw = listener->accept();
  if (!raw || !raw->set_nonblocking(false) || !conn->set_nonblocking(true)) {
    return 0;
  }

  std::vector<MsgPtr> msgs;
  for (std::size_t i = 0; i < kTailMsgs; ++i) {
    msgs.push_back(Msg::data(NodeId::loopback(1), 1, static_cast<u32>(i),
                             Buffer::pattern(kTailPayload,
                                             static_cast<u32>(i))));
  }
  // One notification is the only help this buffer ever gets.
  auto link = fx.link(NodeId::loopback(1), NodeId::loopback(2),
                      std::move(*conn), /*dial_pending=*/false, msgs);

  // Read in small pieces so the link keeps hitting a full socket.
  const std::size_t frame = Msg::kHeaderSize + kTailPayload;
  std::vector<u8> bytes;
  u8 chunk[4096];
  while (bytes.size() < kTailMsgs * frame &&
         test::wait_readable(raw->fd(), millis(500))) {
    const long n = raw->read_some(chunk, sizeof(chunk));
    if (n <= 0) break;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  fx.destroy(link);

  std::size_t in_order = 0;
  for (std::size_t off = 0; off + frame <= bytes.size(); off += frame) {
    const auto header = codec::decode_header(bytes.data() + off);
    if (!header || header->seq != in_order ||
        header->payload_size != kTailPayload) {
      break;
    }
    ++in_order;
  }
  return in_order;
}

TEST(PeerLinkTail, SendBufferFilledOnceDrainsToASlowReader) {
  Fixture fx;
  fx.config.send_buffer_msgs = kTailMsgs;
  for (int cycle = 0; cycle < kTailCycles; ++cycle) {
    ASSERT_EQ(run_tail_cycle(fx), kTailMsgs) << "cycle " << cycle;
  }
}

// ---------------------------------------------------------------------------
// Clock reads on an unlimited link
// ---------------------------------------------------------------------------

/// The real clock, counting its reads.
class CountingClock final : public Clock {
 public:
  TimePoint now() const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return RealClock::instance().now();
  }
  u64 reads() const { return reads_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<u64> reads_{0};
};

/// Plays the switch: like the engine, every on_link_ready schedules one
/// pass after the current callback that drains the receive buffer, on
/// the link's worker and without reading any clock.
class DrainingOwner final : public LinkOwner {
 public:
  explicit DrainingOwner(reactor::Worker& worker) : worker_(worker) {}

  void on_link_message(PeerLink&, MsgPtr) override {}
  void on_link_failed(PeerLink&, MsgType) override { failed_ = true; }
  void on_link_ready(PeerLink& link) override {
    ++batches_;
    if (pass_pending_) return;
    pass_pending_ = true;
    worker_.defer(this, [this, &link] {
      pass_pending_ = false;
      std::vector<Inbound> batch;
      link.recv_buffer().try_pop_batch(batch, link.recv_buffer().size());
      for (const auto& in : batch) {
        const Msg& m = *in.msg;
        intact_ += m.seq() == next_seq_ &&
                   Buffer::matches_pattern(m.payload()->data(),
                                           m.payload_size(), m.seq());
        ++next_seq_;
      }
      link.notify_recv_space();
    });
  }

  // Read on the worker (Worker::call) or after the link is gone.
  u64 batches_ = 0;   ///< on_link_ready calls: batches handed over
  u64 next_seq_ = 0;  ///< messages drained
  u64 intact_ = 0;    ///< of those, in order with the right payload
  bool failed_ = false;

 private:
  reactor::Worker& worker_;
  bool pass_pending_ = false;
};

constexpr std::size_t kClockMsgs = 1000;
const NodeId kSender = NodeId::loopback(1);

/// A Fixture whose links read a CountingClock and report to a
/// DrainingOwner.
struct ClockRig {
  Fixture fx;
  CountingClock clock;
  DrainingOwner owner{fx.worker};
  ClockRig() {
    fx.clock = &clock;
    fx.owner = &owner;
  }

  /// Streams kClockMsgs back-to-back 1 KB frames from a raw socket into
  /// an accepting link from kSender. False if the stream did not arrive.
  bool stream() {
    auto listener = TcpListener::listen(0);
    if (!listener) return false;
    auto raw = TcpConn::connect(NodeId::loopback(listener->port()),
                                seconds(1.0));
    if (!raw || !test::wait_readable(listener->fd(), seconds(1.0))) {
      return false;
    }
    auto accepted = listener->accept();
    if (!accepted || !accepted->set_nonblocking(true) ||
        !raw->set_nonblocking(false)) {
      return false;
    }
    std::vector<MsgPtr> msgs;
    for (std::size_t i = 0; i < kClockMsgs; ++i) {
      msgs.push_back(Msg::data(kSender, 1, static_cast<u32>(i),
                               Buffer::pattern(1000, static_cast<u32>(i))));
    }
    auto link = fx.link(NodeId::loopback(2), kSender, std::move(*accepted),
                        /*dial_pending=*/false);
    const bool written = write_batch(*raw, msgs.data(), msgs.size());
    const bool arrived = wait_until([&] {
      u64 drained = 0;
      fx.worker.call([&] { drained = owner.next_seq_; });
      return drained == kClockMsgs;
    });
    fx.worker.call([&] {
      fx.worker.cancel_deferred(&owner);  // a pending pass would see no link
      link.reset();
    });
    return written && arrived;
  }
};

TEST(PeerLinkClock, UnlimitedLinkReadsTheClockOncePerBatch) {
  ClockRig rig;
  ASSERT_TRUE(rig.stream());
  EXPECT_EQ(rig.owner.intact_, kClockMsgs);  // delivery unchanged
  EXPECT_FALSE(rig.owner.failed_);
  // A receive pump that routes anything reads the clock once and hands
  // the owner at least one batch, so reads never exceed batches. Pacing
  // the messages would take a read each for the emulator, and per
  // message stamps another.
  EXPECT_GT(rig.owner.batches_, 0u);
  EXPECT_LE(rig.clock.reads(), rig.owner.batches_);
}

TEST(PeerLinkClock, RemovedLimitsPutTheLinkBackOnTheFastPath) {
  ClockRig rig;
  BandwidthEmulator& bw = rig.fx.bandwidth;
  bw.set_node_total(1e9);
  bw.set_link_down(kSender, 1e9);
  bw.set_link_down(kSender, 0.0);
  bw.set_node_total(0.0);
  ASSERT_FALSE(bw.limited());
  ASSERT_TRUE(rig.stream());
  EXPECT_EQ(rig.owner.intact_, kClockMsgs);
  EXPECT_LE(rig.clock.reads(), rig.owner.batches_);
}

TEST(PeerLinkClock, LimitedLinkConsultsTheEmulatorPerMessage) {
  ClockRig rig;
  // A limit far above loopback speed: every message goes through the
  // emulator (one clock read each) yet none waits.
  rig.fx.bandwidth.set_link_down(kSender, 1e12);
  ASSERT_TRUE(rig.stream());
  EXPECT_EQ(rig.owner.intact_, kClockMsgs);
  EXPECT_GE(rig.clock.reads(), kClockMsgs);
  const auto& waits = rig.fx.metrics.histogram(
      obs::names::kThrottleWaitSeconds,
      {{"peer", kSender.to_string()}, {"dir", "up"}});
  EXPECT_EQ(waits.count(), 0u);
}

}  // namespace
}  // namespace iov::engine
