// Property sweep: arbitrary headers survive the wire round trip, and
// arbitrary payload bytes survive framing over real sockets.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "message/codec.h"
#include "net/framing.h"
#include "net/socket.h"
#include "../net/net_test_util.h"

namespace iov {
namespace {

class HeaderRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(HeaderRoundTrip, RandomHeadersSurvive) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    codec::Header h;
    h.type = from_wire(static_cast<u32>(rng()));
    h.origin = NodeId(static_cast<u32>(rng()),
                      static_cast<u16>(rng.below(65536)));
    h.app = static_cast<u32>(rng());
    h.seq = static_cast<u32>(rng());
    h.payload_size = static_cast<u32>(rng.below(Msg::kMaxPayload + 1));
    const auto bytes = codec::encode_header(h);
    const auto parsed = codec::decode_header(bytes.data());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, h.type);
    EXPECT_EQ(parsed->origin, h.origin);
    EXPECT_EQ(parsed->app, h.app);
    EXPECT_EQ(parsed->seq, h.seq);
    EXPECT_EQ(parsed->payload_size, h.payload_size);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeaderRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(FramingProperty, RandomPayloadsSurviveSockets) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client =
      TcpConn::connect(NodeId::loopback(listener->port()), seconds(1.0));
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(test::wait_readable(listener->fd(), seconds(1.0)));
  auto server = listener->accept();
  ASSERT_TRUE(server.has_value());
  ASSERT_TRUE(server->set_nonblocking(false));

  SlabPool pool;
  FrameReader reader(*server, pool);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const std::size_t size = rng.below(2000);
    std::vector<u8> payload(size);
    for (auto& b : payload) b = static_cast<u8>(rng.below(256));
    const MsgPtr m = std::make_shared<Msg>(
        from_wire(static_cast<u32>(rng.below(0x400))),
        NodeId(static_cast<u32>(rng()), static_cast<u16>(rng.below(65536))),
        static_cast<u32>(rng()), static_cast<u32>(rng()),
        Buffer::wrap(std::move(payload)));
    ASSERT_TRUE(write_batch(*client, &m, 1));
    const MsgPtr got = reader.next();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->type(), m->type());
    EXPECT_EQ(got->origin(), m->origin());
    EXPECT_EQ(got->app(), m->app());
    EXPECT_EQ(got->seq(), m->seq());
    EXPECT_EQ(got->payload()->bytes(), m->payload()->bytes());
  }
}

}  // namespace
}  // namespace iov
