#include "net/framing.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "message/codec.h"

namespace iov {

namespace {
constexpr u32 kMagic = 0x494f5631;  // "IOV1"
}  // namespace

std::array<u8, kHelloBytes> encode_hello(const Hello& hello) {
  std::array<u8, kHelloBytes> bytes;
  codec::write_u32(bytes.data(), kMagic);
  codec::write_u32(bytes.data() + 4, static_cast<u32>(hello.kind));
  codec::write_u32(bytes.data() + 8, hello.sender.ip());
  codec::write_u32(bytes.data() + 12, hello.sender.port());
  return bytes;
}

std::optional<Hello> decode_hello(const u8* bytes) {
  if (codec::read_u32(bytes) != kMagic) return std::nullopt;
  const u32 kind = codec::read_u32(bytes + 4);
  if (kind != static_cast<u32>(ConnKind::kPersistent) &&
      kind != static_cast<u32>(ConnKind::kControl)) {
    return std::nullopt;
  }
  const u32 ip = codec::read_u32(bytes + 8);
  const u32 port = codec::read_u32(bytes + 12);
  if (port > 0xffff) return std::nullopt;
  Hello hello;
  hello.kind = static_cast<ConnKind>(kind);
  hello.sender = NodeId(ip, static_cast<u16>(port));
  return hello;
}

bool write_batch(TcpConn& conn, const MsgPtr* msgs, std::size_t n,
                 u64* syscalls) {
  std::array<codec::HeaderBytes, kMaxWireBatch> headers;
  std::array<iovec, 2 * kMaxWireBatch> iov;
  for (std::size_t done = 0; done < n;) {
    const std::size_t take = std::min(n - done, kMaxWireBatch);
    int iovcnt = 0;
    for (std::size_t i = 0; i < take; ++i) {
      const Msg& m = *msgs[done + i];
      headers[i] = codec::encode_header(m);
      iov[iovcnt++] = {headers[i].data(), headers[i].size()};
      if (m.payload_size() > 0) {
        iov[iovcnt++] = {const_cast<u8*>(m.payload()->data()),
                         m.payload_size()};
      }
    }
    if (!conn.writev_all(iov.data(), iovcnt, syscalls)) return false;
    done += take;
  }
  return true;
}

FrameReader::FrameReader(TcpConn& conn, SlabPool& pool,
                         std::size_t chunk_bytes)
    : conn_(conn),
      pool_(pool),
      chunk_bytes_(std::max<std::size_t>(chunk_bytes, 2 * Msg::kHeaderSize)) {}

bool FrameReader::refill(std::size_t need, std::size_t cap) {
  const std::size_t leftover = available();
  // The size a fresh chunk gets: small after a small recv, never less
  // than the partial frame carried over plus one header, nor than the
  // frame this refill must complete (so it still decodes as a slice).
  const std::size_t base =
      last_recv_ > kSmallRecvBytes
          ? chunk_bytes_
          : std::min(SlabPool::kMinSlabBytes, chunk_bytes_);
  const std::size_t want = std::min(
      chunk_bytes_, std::max({base, leftover + Msg::kHeaderSize, need}));
  const bool drained = pos_ == end_;
  if (chunk_ && drained && !chunk_sliced_ && chunk_size_ >= want) {
    // Fully drained and no payload slice was ever minted from this chunk:
    // nothing outside this thread has seen the bytes, so rewind and reuse.
    pos_ = end_ = 0;
  } else if (!chunk_ || pos_ + need > chunk_size_ ||
             (drained && (!chunk_sliced_ ||
                          chunk_size_ - end_ < std::max(need, last_recv_)))) {
    // No room for the frame being completed, a drained chunk smaller than
    // wanted, or a sliced and drained one without room for another recv
    // like the last: outstanding slices may still reference the old
    // chunk, so take a fresh slab and carry any partial frame over. The
    // old slab rejoins the pool when its last slice is released; the
    // pool's class mutex orders the consumers' reads before the next
    // acquirer's writes, so no refcount observation is needed here.
    // A sliced chunk that still has room is appended to instead (safe:
    // slices only cover bytes below pos_), so a low-rate link takes a
    // slab every few messages rather than one per message.
    SlabPtr fresh = pool_.acquire(want);
    if (leftover > 0) {
      std::memcpy(fresh->data(), chunk_->data() + pos_, leftover);
    }
    chunk_ = std::move(fresh);
    chunk_size_ = std::min(chunk_->capacity(), chunk_bytes_);
    chunk_sliced_ = false;
    pos_ = 0;
    end_ = leftover;
  }
  const long n = conn_.read_some(chunk_->data() + end_,
                                 std::min(chunk_size_ - end_, cap));
  ++syscalls_;
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    would_block_ = true;  // non-blocking socket drained, not dead
    return false;
  }
  if (n <= 0) return false;  // EOF or socket error
  last_recv_ = static_cast<std::size_t>(n);
  end_ += last_recv_;
  return true;
}

MsgPtr FrameReader::read_large(const codec::Header& header) {
  // Frame bigger than the chunk: recv the payload directly into a
  // recycled pool slab (zero per-message payload allocation, no
  // zero-fill). Any payload bytes the chunk already holds are seeded
  // with one memcpy; in the steady large-frame state the expect_large_
  // exact-header reads keep that seed empty, so the payload is never
  // copied at all.
  LargePending p;
  p.header = header;
  const std::size_t size = header.payload_size;
  p.slab = pool_.acquire(size);
  const std::size_t have = std::min(available(), size);
  if (have > 0) {
    std::memcpy(p.slab->data(), chunk_->data() + pos_, have);
    pos_ += have;
  }
  p.got = have;
  large_.emplace(std::move(p));
  return resume_large();
}

MsgPtr FrameReader::resume_large() {
  LargePending& p = *large_;
  const std::size_t size = p.header.payload_size;
  u8* dst = p.slab->data();
  while (p.got < size) {
    const long n = conn_.read_some(dst + p.got, size - p.got);
    ++syscalls_;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Mid-payload on a non-blocking socket: keep the destination and
      // byte count; the next next() call picks up exactly here.
      would_block_ = true;
      return nullptr;
    }
    if (n <= 0) {
      failed_ = true;
      large_.reset();
      return nullptr;
    }
    p.got += static_cast<std::size_t>(n);
  }
  ++msgs_;
  expect_large_ = true;
  auto msg = std::make_shared<Msg>(p.header.type, p.header.origin,
                                   p.header.app, p.header.seq,
                                   Buffer::slice(p.slab, dst, size));
  large_.reset();
  return msg;
}

bool FrameReader::buffered() const {
  if (failed_) return true;  // next() reports the error without blocking
  if (available() < Msg::kHeaderSize) return false;
  const auto header = codec::decode_header(chunk_->data() + pos_);
  if (!header) return true;  // corrupt: next() fails without a syscall
  const std::size_t total = Msg::kHeaderSize + header->payload_size;
  if (total > chunk_bytes_) return false;  // large-frame path needs reads
  return available() >= total;
}

MsgPtr FrameReader::next() {
  would_block_ = false;
  if (large_ && !failed_) return resume_large();
  while (!failed_) {
    if (available() < Msg::kHeaderSize) {
      // After a large frame, read the next header *exactly*: a greedy
      // chunk fill would slurp the following (likely large) payload
      // into the chunk, forcing read_large to memcpy it back out. If
      // the guess is wrong the next frame is small and costs one extra
      // bounded recv before normal bulk filling resumes.
      if (!refill(Msg::kHeaderSize,
                  expect_large_ ? Msg::kHeaderSize - available()
                                : static_cast<std::size_t>(-1))) {
        if (would_block_) return nullptr;  // retry when readable
        break;
      }
      continue;
    }
    const auto header = codec::decode_header(chunk_->data() + pos_);
    if (!header) {
      failed_ = corrupt_ = true;
      break;
    }
    const std::size_t total = Msg::kHeaderSize + header->payload_size;
    if (total > chunk_bytes_) {
      pos_ += Msg::kHeaderSize;
      return read_large(*header);
    }
    expect_large_ = false;
    if (available() < total) {
      if (!refill(total)) {
        if (would_block_) return nullptr;  // retry when readable
        break;
      }
      continue;
    }
    BufferPtr payload;  // Msg substitutes the shared empty buffer for null
    if (header->payload_size > 0) {
      payload = Buffer::slice(chunk_, chunk_->data() + pos_ + Msg::kHeaderSize,
                              header->payload_size);
      chunk_sliced_ = true;
    }
    pos_ += total;
    ++msgs_;
    return std::make_shared<Msg>(header->type, header->origin, header->app,
                                 header->seq, std::move(payload));
  }
  failed_ = true;
  return nullptr;
}

}  // namespace iov
