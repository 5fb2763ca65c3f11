// Socket and framing tests over real loopback TCP: listener/connect,
// hello exchange, message framing, EOF handling, and shutdown semantics.
#include "net/socket.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <vector>

#include "net/framing.h"
#include "net_test_util.h"

namespace iov {
namespace {

struct Pair {
  TcpConn client;
  TcpConn server;
};

// Establishes a connected loopback pair.
Pair make_pair() {
  auto listener = TcpListener::listen(0);
  EXPECT_TRUE(listener.has_value());
  auto client = TcpConn::connect(NodeId::loopback(listener->port()),
                                 seconds(1.0));
  EXPECT_TRUE(client.has_value());
  EXPECT_TRUE(test::wait_readable(listener->fd(), seconds(1.0)));
  auto server = listener->accept();
  EXPECT_TRUE(server.has_value());
  EXPECT_TRUE(server->set_nonblocking(false));  // the tests read blocking
  return Pair{std::move(*client), std::move(*server)};
}

TEST(Socket, ListenerPicksEphemeralPort) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  EXPECT_GT(listener->port(), 0);
}

TEST(Socket, AcceptWithoutPendingReturnsNullopt) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  EXPECT_FALSE(listener->accept().has_value());
}

TEST(Socket, AcceptedSocketIsNonBlocking) {
  // An engine reads accepted sockets from a reactor worker, which must
  // never block: a silent peer has to read as EAGAIN, not as a wait.
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client = TcpConn::connect(NodeId::loopback(listener->port()),
                                 seconds(1.0));
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(test::wait_readable(listener->fd(), seconds(1.0)));
  auto server = listener->accept();
  ASSERT_TRUE(server.has_value());
  u8 byte = 0;
  EXPECT_EQ(server->read_some(&byte, 1), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
}

TEST(Socket, ConnectToClosedPortFails) {
  // Bind a port and close it so nothing is listening there.
  u16 port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.has_value());
    port = listener->port();
  }
  EXPECT_FALSE(TcpConn::connect(NodeId::loopback(port), millis(500)));
}

TEST(Socket, WriteReadRoundTrip) {
  auto pair = make_pair();
  const char out[] = "hello iOverlay";
  ASSERT_TRUE(pair.client.write_all(out, sizeof(out)));
  char in[sizeof(out)] = {};
  ASSERT_TRUE(pair.server.read_all(in, sizeof(in)));
  EXPECT_STREQ(in, out);
}

TEST(Socket, LargeTransferCrossesBufferBoundaries) {
  auto pair = make_pair();
  std::vector<u8> out(1 << 20);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<u8>(i);
  std::thread writer(
      [&] { EXPECT_TRUE(pair.client.write_all(out.data(), out.size())); });
  std::vector<u8> in(out.size());
  EXPECT_TRUE(pair.server.read_all(in.data(), in.size()));
  writer.join();
  EXPECT_EQ(in, out);
}

TEST(Socket, ReadAllFailsOnEof) {
  auto pair = make_pair();
  pair.client.shutdown_write();
  char buf[4];
  EXPECT_FALSE(pair.server.read_all(buf, sizeof(buf)));
}

TEST(Socket, ShutdownBothWakesBlockedReader) {
  auto pair = make_pair();
  std::thread reader([&] {
    char buf[4];
    EXPECT_FALSE(pair.server.read_all(buf, sizeof(buf)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pair.server.shutdown_both();
  reader.join();
}

TEST(Socket, PeerAndLocalAddr) {
  auto pair = make_pair();
  const auto peer = pair.client.peer_addr();
  const auto local = pair.server.local_addr();
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(peer->ip(), 0x7f000001u);
  EXPECT_EQ(peer->port(), local->port());
}

TEST(Framing, HelloRoundTrip) {
  auto pair = make_pair();
  const Hello hello{ConnKind::kPersistent, NodeId::loopback(7777)};
  ASSERT_TRUE(test::write_hello(pair.client, hello));
  const auto got = test::read_hello(pair.server);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, ConnKind::kPersistent);
  EXPECT_EQ(got->sender, NodeId::loopback(7777));
}

TEST(Framing, HelloRejectsBadMagic) {
  auto pair = make_pair();
  const u8 junk[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  ASSERT_TRUE(pair.client.write_all(junk, sizeof(junk)));
  EXPECT_FALSE(test::read_hello(pair.server).has_value());
}

TEST(Framing, MessageRoundTrip) {
  auto pair = make_pair();
  const NodeId origin = NodeId::loopback(5001);
  const auto m = Msg::data(origin, 9, 77, Buffer::pattern(5000, 77));
  ASSERT_TRUE(test::write_frame(pair.client, m));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  const MsgPtr got = reader.next();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->type(), MsgType::kData);
  EXPECT_EQ(got->origin(), origin);
  EXPECT_EQ(got->app(), 9u);
  EXPECT_EQ(got->seq(), 77u);
  EXPECT_EQ(got->payload()->bytes(), m->payload()->bytes());
}

TEST(Framing, EmptyPayloadMessage) {
  auto pair = make_pair();
  const auto m = Msg::control(MsgType::kRequest, NodeId::loopback(1), 0);
  ASSERT_TRUE(test::write_frame(pair.client, m));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  const MsgPtr got = reader.next();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->type(), MsgType::kRequest);
}

TEST(Framing, BackToBackMessagesStayFramed) {
  auto pair = make_pair();
  for (u32 i = 0; i < 50; ++i) {
    const auto m = Msg::data(NodeId::loopback(1), 1, i, Buffer::pattern(100, i));
    ASSERT_TRUE(test::write_frame(pair.client, m));
  }
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (u32 i = 0; i < 50; ++i) {
    const MsgPtr got = reader.next();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->seq(), i);
    EXPECT_EQ(got->payload()->bytes(), Buffer::pattern(100, i)->bytes());
  }
}

TEST(Framing, EofBeforeAnyFrameReadsAsNull) {
  auto pair = make_pair();
  pair.client.shutdown_write();
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  EXPECT_EQ(reader.next(), nullptr);
  EXPECT_FALSE(reader.corrupt());
}

}  // namespace
}  // namespace iov
