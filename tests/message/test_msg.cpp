// Message, buffer and header-codec tests: the 24-byte wire layout of
// paper Fig. 3, zero-copy payload sharing, the §2.3 clone semantics, and
// the control-parameter convention.
#include "message/msg.h"

#include <gtest/gtest.h>

#include "message/codec.h"

namespace iov {
namespace {

const NodeId kOrigin(0x0a000001, 4242);  // 10.0.0.1:4242

TEST(Buffer, PatternIsDeterministicAndSeedSensitive) {
  const auto a = Buffer::pattern(64, 1);
  const auto b = Buffer::pattern(64, 1);
  const auto c = Buffer::pattern(64, 2);
  EXPECT_EQ(a->bytes(), b->bytes());
  EXPECT_NE(a->bytes(), c->bytes());
  EXPECT_EQ(a->size(), 64u);
}

TEST(Buffer, MatchesPatternChecksInPlace) {
  const auto a = Buffer::pattern(1000, 7);
  EXPECT_TRUE(Buffer::matches_pattern(a->data(), a->size(), 7));
  EXPECT_FALSE(Buffer::matches_pattern(a->data(), a->size(), 8));
  auto flipped = a->bytes();
  flipped[999] ^= 1;
  EXPECT_FALSE(Buffer::matches_pattern(flipped.data(), flipped.size(), 7));
}

TEST(Buffer, FromStringRoundTrip) {
  const auto buf = Buffer::from_string("hello overlay");
  EXPECT_EQ(buf->view(), "hello overlay");
}

TEST(Buffer, EmptyBufferIsShared) {
  EXPECT_EQ(Buffer::empty_buffer().get(), Buffer::empty_buffer().get());
  EXPECT_TRUE(Buffer::empty_buffer()->empty());
}

TEST(Msg, HeaderIs24Bytes) {
  EXPECT_EQ(Msg::kHeaderSize, 24u);
}

TEST(Msg, WireSizeIncludesHeader) {
  const auto m = Msg::data(kOrigin, 3, 7, Buffer::pattern(100, 0));
  EXPECT_EQ(m->payload_size(), 100u);
  EXPECT_EQ(m->wire_size(), 124u);
}

TEST(Msg, HeaderEncodeDecodeRoundTrip) {
  const auto m = Msg::data(kOrigin, 17, 0xdeadbeef, Buffer::pattern(5000, 9));
  const auto bytes = codec::encode_header(*m);
  const auto h = codec::decode_header(bytes.data());
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->type, MsgType::kData);
  EXPECT_EQ(h->origin, kOrigin);
  EXPECT_EQ(h->app, 17u);
  EXPECT_EQ(h->seq, 0xdeadbeefu);
  EXPECT_EQ(h->payload_size, 5000u);
}

TEST(Msg, HeaderWireLayoutIsBigEndian) {
  codec::Header h;
  h.type = MsgType::kData;
  h.origin = NodeId(0x01020304, 0x0506);
  h.app = 0x0708090a;
  h.seq = 0x0b0c0d0e;
  h.payload_size = 0x0f101112;
  const auto bytes = codec::encode_header(h);
  const u8 expected[24] = {0x00, 0x00, 0x00, 0x01,   // type = kData
                           0x01, 0x02, 0x03, 0x04,   // ip
                           0x00, 0x00, 0x05, 0x06,   // port (4-byte field)
                           0x07, 0x08, 0x09, 0x0a,   // app
                           0x0b, 0x0c, 0x0d, 0x0e,   // seq
                           0x0f, 0x10, 0x11, 0x12};  // payload size
  EXPECT_EQ(std::memcmp(bytes.data(), expected, 24), 0);
}

TEST(Msg, DecodeRejectsOversizedPayload) {
  codec::Header h;
  h.type = MsgType::kData;
  h.payload_size = static_cast<u32>(Msg::kMaxPayload + 1);
  const auto bytes = codec::encode_header(h);
  EXPECT_FALSE(codec::decode_header(bytes.data()).has_value());
}

TEST(Msg, DecodeRejectsBadPort) {
  u8 bytes[24] = {};
  codec::write_u32(bytes, to_wire(MsgType::kData));
  codec::write_u32(bytes + 8, 0x10000);  // port field > 65535
  EXPECT_FALSE(codec::decode_header(bytes).has_value());
}

TEST(Msg, SeqIsTheOnlyMutableField) {
  const auto m = Msg::data(kOrigin, 1, 5, Buffer::pattern(10, 0));
  m->set_seq(99);
  EXPECT_EQ(m->seq(), 99u);
  EXPECT_EQ(m->type(), MsgType::kData);
  EXPECT_EQ(m->origin(), kOrigin);
}

TEST(Msg, CloneSharesPayloadZeroCopy) {
  const auto m = Msg::data(kOrigin, 1, 5, Buffer::pattern(10, 0));
  const auto c = m->clone();
  EXPECT_NE(c.get(), m.get());
  EXPECT_EQ(c->payload().get(), m->payload().get());  // shared, not copied
  c->set_seq(42);
  EXPECT_EQ(m->seq(), 5u);  // header is independent
}

TEST(Msg, CloneWithPayloadSwapsOnlyPayload) {
  const auto m = Msg::data(kOrigin, 1, 5, Buffer::pattern(10, 0));
  const auto c = m->clone_with_payload(Buffer::from_string("new"));
  EXPECT_EQ(c->text(), "new");
  EXPECT_EQ(c->app(), 1u);
  EXPECT_EQ(c->seq(), 5u);
}

TEST(Msg, ControlParams) {
  const auto m =
      Msg::control(MsgType::kControl, kOrigin, kControlApp, -7, 123, "args");
  EXPECT_EQ(m->param(0), -7);
  EXPECT_EQ(m->param(1), 123);
  EXPECT_EQ(m->param_text(), "args");
}

TEST(Msg, ControlParamsWithoutText) {
  const auto m = Msg::control(MsgType::kSJoin, kOrigin, kControlApp, 5);
  EXPECT_EQ(m->param(0), 5);
  EXPECT_EQ(m->param(1), 0);
  EXPECT_EQ(m->param_text(), "");
  EXPECT_EQ(m->payload_size(), 8u);
}

TEST(Msg, ParamOnShortPayloadIsZero) {
  const auto m = Msg::text_msg(MsgType::kTrace, kOrigin, kControlApp, "ab");
  EXPECT_EQ(m->param(0), 0);
  EXPECT_EQ(m->param(1), 0);
  EXPECT_EQ(m->param(2), 0);   // out of range
  EXPECT_EQ(m->param(-1), 0);  // out of range
}

TEST(Msg, TextMsg) {
  const auto m = Msg::text_msg(MsgType::kReport, kOrigin, kControlApp, "body");
  EXPECT_EQ(m->text(), "body");
  EXPECT_EQ(m->type(), MsgType::kReport);
}

TEST(Msg, DescribeMentionsTypeAndOrigin) {
  const auto m = Msg::data(kOrigin, 1, 2, Buffer::pattern(3, 0));
  const auto d = m->describe();
  EXPECT_NE(d.find("data"), std::string::npos);
  EXPECT_NE(d.find("10.0.0.1:4242"), std::string::npos);
}

TEST(MsgTypes, NamesAreStable) {
  EXPECT_STREQ(msg_type_name(MsgType::kData), "data");
  EXPECT_STREQ(msg_type_name(MsgType::kBoot), "boot");
  EXPECT_STREQ(msg_type_name(MsgType::kBrokenSource), "BrokenSource");
  EXPECT_STREQ(msg_type_name(MsgType::kUpThroughput), "UpThroughput");
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(0x0400)), "user");
}

TEST(MsgTypes, Classification) {
  EXPECT_TRUE(is_observer_type(MsgType::kSDeploy));
  EXPECT_TRUE(is_observer_type(MsgType::kBoot));
  EXPECT_FALSE(is_observer_type(MsgType::kData));
  EXPECT_TRUE(is_engine_internal(MsgType::kPeerFailed));
  EXPECT_TRUE(is_engine_internal(MsgType::kSendFailed));
  EXPECT_FALSE(is_engine_internal(MsgType::kBrokenSource));
}

TEST(Codec, U64RoundTrip) {
  u8 buf[8];
  codec::write_u64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(codec::read_u64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
}

}  // namespace
}  // namespace iov
