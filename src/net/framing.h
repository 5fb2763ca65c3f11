// Message framing over TCP streams.
//
// Every iOverlay connection begins with a 16-byte hello identifying the
// connection kind and the dialing node, then carries a sequence of
// messages framed as [24-byte header | payload] (paper Fig. 3).
//
// Hello layout (big-endian):
//     magic   4 bytes  "IOV1"
//     kind    4 bytes  ConnKind
//     ip      4 bytes  dialing node's publicized IPv4
//     port    4 bytes  dialing node's publicized port
//
// The publicized address in the hello is what lets persistent connections
// be shared: the accepting engine keys the connection by the *node id*
// the peer listens on, not by the ephemeral source port of the TCP
// connection itself.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/node_id.h"
#include "message/codec.h"
#include "message/msg.h"
#include "message/slab_pool.h"
#include "net/socket.h"

namespace iov {

/// What a freshly accepted connection will carry.
enum class ConnKind : u32 {
  /// A persistent node-to-node connection: data and protocol messages,
  /// one per pair of nodes, reused by all applications (paper §2.2,
  /// "persistent connections").
  kPersistent = 1,
  /// A transient control connection (observer commands, one-shot protocol
  /// messages, cross-thread notifications through the publicized port).
  kControl = 2,
};

struct Hello {
  ConnKind kind = ConnKind::kControl;
  NodeId sender;
};

/// The hello's fixed wire length.
constexpr std::size_t kHelloBytes = 16;

/// Serializes the hello (a dialing PeerLink queues these bytes for a
/// non-blocking write).
std::array<u8, kHelloBytes> encode_hello(const Hello& hello);

/// Validates the kHelloBytes at `bytes` (an Acceptor gathers them from a
/// non-blocking socket); nullopt on bad magic, kind or port.
std::optional<Hello> decode_hello(const u8* bytes);

/// Messages coalesced into one scatter-gather flush (2 iovecs each).
constexpr std::size_t kMaxWireBatch = 32;

/// Writes `n` framed messages on a blocking socket, coalescing up to
/// kMaxWireBatch of them per sendmsg call; a header and its payload are
/// never split across calls, so a header is never its own TCP segment
/// even with Nagle disabled. Byte-identical on the wire to a PeerLink's
/// flushes. `syscalls`, when non-null, accumulates the sendmsg calls
/// issued. False on any socket error (the stream position is then
/// undefined — the connection must be torn down).
bool write_batch(TcpConn& conn, const MsgPtr* msgs, std::size_t n,
                 u64* syscalls = nullptr);

/// Bulk frame decoder: recv()s into a receive chunk, decodes as many
/// complete frames per syscall as arrived, and hands payloads out as
/// ref-counted Buffer slices of the chunk — zero per-message allocations
/// on the hot path. A chunk stays alive until the last payload slice
/// referencing it is released; the reader only appends to a chunk it has
/// sliced, never rewrites bytes a slice may see, so slices are safe to
/// read from other threads once handed over (the engine's bounded queues
/// provide the happens-before edge).
///
/// Chunks are recycled slabs from the SlabPool, sized to the load when a
/// fresh one is needed: the smallest slab class (4 KB) after a recv that
/// brought at most 2 KB, the full chunk (64 KB) otherwise, and never
/// less than the frame the next recv must complete. A low-rate link
/// therefore parks one 4 KB slab, and a saturated one reads 64 KB per
/// syscall. A drained chunk that handed out slices is never rewound:
/// the reader appends to it while it has room for another recv as large
/// as the last one (so a low-rate link takes a slab every few messages,
/// not one per message), then drops it. Its slab rejoins the pool when
/// the last slice is released, and the pool's class mutex orders that
/// release before the next acquirer's writes. A drained chunk that never
/// handed out a slice is rewound in place.
///
/// Frames larger than the chunk take the large-frame path: the payload
/// is recv'd *directly* into a recycled slab from the SlabPool (zero
/// copy, zero per-message payload allocation; the slab returns to the
/// pool when the last Buffer slice referencing it is released). After a
/// large frame the reader expects another one and reads the next header
/// *exactly* (never slurping payload bytes into the chunk), so a steady
/// stream of large frames is decoded without ever copying a payload
/// byte; the guess costs one small extra recv when the stream turns
/// small again.
class FrameReader {
 public:
  /// Default (full) recv chunk; bounds read-ahead (and thus how far the
  /// receiver can run ahead of per-message pacing) to one socket buffer's
  /// worth. Frames larger than this take the large-frame path.
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  /// `pool` serves the receive chunks and the large-frame payload slabs
  /// and must outlive the reader (the slabs themselves may outlive both).
  FrameReader(TcpConn& conn, SlabPool& pool,
              std::size_t chunk_bytes = kDefaultChunkBytes);

  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// Next decoded message; nullptr on EOF, socket error, or a corrupt
  /// header (the reader then fails permanently) — or, on a non-blocking
  /// socket, when no complete frame has arrived yet (would_block() then
  /// reads true and the reader is NOT failed: call next() again when the
  /// socket turns readable; a partially received large frame resumes
  /// where it stopped).
  MsgPtr next();

  /// True when the last next() returned nullptr only because the
  /// non-blocking socket had no more bytes (EAGAIN), not because the
  /// stream ended. Reset by every next() call.
  bool would_block() const { return would_block_; }

  /// True when the stream died on a malformed header rather than EOF.
  bool corrupt() const { return corrupt_; }

  /// True when next() can produce a result (a decoded frame, or the
  /// pending stream error) from already-buffered bytes alone — i.e. it
  /// will not issue a recv syscall. Lets callers batch work between
  /// blocking reads.
  bool buffered() const;

  /// recv syscalls issued so far (for iov_link_syscalls_total).
  u64 syscalls() const { return syscalls_; }

  /// Messages decoded so far.
  u64 msgs() const { return msgs_; }

 private:
  /// A recv that brought at most this many bytes makes the next fresh
  /// chunk a small one (SlabPool::kMinSlabBytes).
  static constexpr std::size_t kSmallRecvBytes = 2 * 1024;

  std::size_t available() const { return end_ - pos_; }
  /// Makes room for `need` bytes from pos_ and reads more bytes into the
  /// chunk; recvs at most `cap` bytes (the default is "fill the chunk").
  bool refill(std::size_t need,
              std::size_t cap = static_cast<std::size_t>(-1));
  MsgPtr read_large(const codec::Header& header);
  /// Continues a partially received large frame (see LargePending).
  MsgPtr resume_large();

  TcpConn& conn_;
  SlabPool& pool_;
  const std::size_t chunk_bytes_;
  SlabPtr chunk_;
  std::size_t chunk_size_ = 0;  ///< usable bytes of *chunk_
  std::size_t pos_ = 0;  ///< first undecoded byte in *chunk_
  std::size_t end_ = 0;  ///< one past the last received byte
  std::size_t last_recv_ = 0;  ///< bytes the last recv brought
  /// Whether a payload slice of the current chunk was ever handed out.
  /// Once true the chunk is append-only for the rest of its life: refill
  /// never rewinds it, it is replaced instead (see refill()).
  bool chunk_sliced_ = false;
  /// The previous frame exceeded the chunk: read the next header exactly
  /// instead of bulk-filling the chunk, so the payload that likely
  /// follows can be recv'd straight into its slab with no seed copy.
  bool expect_large_ = false;
  u64 syscalls_ = 0;
  u64 msgs_ = 0;
  bool failed_ = false;
  bool corrupt_ = false;
  bool would_block_ = false;
  /// Partially received large frame awaiting more bytes (non-blocking
  /// sockets only): the destination stays put across next() calls.
  struct LargePending {
    codec::Header header;
    SlabPtr slab;
    std::size_t got = 0;
  };
  std::optional<LargePending> large_;
};

}  // namespace iov
