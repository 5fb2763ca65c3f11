// The application-layer message (paper Fig. 3).
//
// Wire layout — a fixed 24-byte header followed by the payload:
//
//     message type            4 bytes
//     original sender IP      4 bytes   (host byte order on the wire is
//     original sender port    4 bytes    big-endian; port uses the low 16
//     application identifier  4 bytes    bits of its field)
//     sequence number         4 bytes   (the only modifiable field)
//     size of the payload     4 bytes
//     payload                 `payload size` bytes
//
// A Msg's content is "mostly immutable, initialized at the time of
// construction" (§2.2): everything except the sequence number is fixed.
// The payload is shared by reference (see buffer.h) so that forwarding a
// message to n downstream nodes performs zero payload copies.
//
// Ownership (§2.3): algorithms never destruct messages. MsgPtr is a
// shared_ptr, so "the engine is responsible for destruction" falls out of
// reference counting — the last holder (a link's send path, usually)
// frees it. Algorithms may re-`send()` a *data* message they received; for any
// other type they must clone() first, which Engine::send enforces in
// debug builds.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <string_view>

#include "common/node_id.h"
#include "common/types.h"
#include "message/buffer.h"
#include "message/types.h"

namespace iov {

class Msg;
using MsgPtr = std::shared_ptr<Msg>;

/// Application identifier 0 is reserved for the middleware's own control
/// plane (observer, engine notifications).
constexpr u32 kControlApp = 0;

class Msg {
 public:
  /// Fixed header length on the wire.
  static constexpr std::size_t kHeaderSize = 24;

  /// Largest payload the framing layer will accept (defensive bound; the
  /// paper's messages are a few KB).
  static constexpr std::size_t kMaxPayload = 16 * 1024 * 1024;

  Msg(MsgType type, NodeId origin, u32 app, u32 seq, BufferPtr payload)
      : type_(type),
        origin_(origin),
        app_(app),
        seq_(seq),
        payload_(payload ? std::move(payload) : Buffer::empty_buffer()) {}

  MsgType type() const { return type_; }
  /// The original sender — *not* the previous hop; it is preserved
  /// verbatim as the message is switched across the overlay.
  NodeId origin() const { return origin_; }
  /// The application session this message belongs to.
  u32 app() const { return app_; }

  u32 seq() const { return seq_; }
  /// The sequence number is the single mutable header field (Fig. 3).
  void set_seq(u32 seq) { seq_ = seq; }

  const BufferPtr& payload() const { return payload_; }
  std::size_t payload_size() const { return payload_->size(); }
  /// Total bytes this message occupies on the wire.
  std::size_t wire_size() const { return kHeaderSize + payload_->size(); }

  /// Payload interpreted as text.
  std::string_view text() const { return payload_->view(); }

  /// Deep-copies the header, shares the payload. This is the clone §2.3
  /// requires before re-sending a non-data message.
  MsgPtr clone() const { return std::make_shared<Msg>(*this); }

  /// Clone with a different payload (for transformation services).
  MsgPtr clone_with_payload(BufferPtr payload) const {
    return std::make_shared<Msg>(type_, origin_, app_, seq_,
                                 std::move(payload));
  }

  // --- Control-parameter convention ---------------------------------------
  // The observer can send algorithm-specific control messages carrying
  // "two optional integer parameters" (paper §2.2). The paper embeds them
  // in its (larger) header; we keep the 24-byte header of Fig. 3 intact
  // and carry the two parameters as the first 8 payload bytes of control
  // messages, big-endian. Everything downstream only uses the accessors
  // below, so the placement is an implementation detail.

  /// Parameter `i` (0 or 1) of a control-style message; 0 if absent.
  i32 param(int i) const;

  /// Text following the two integer parameters (control messages may carry
  /// an argument string, e.g. a NodeId for kSJoin).
  std::string_view param_text() const;

  // --- Factories -----------------------------------------------------------

  /// A data message.
  static MsgPtr data(NodeId origin, u32 app, u32 seq, BufferPtr payload) {
    return std::make_shared<Msg>(MsgType::kData, origin, app, seq,
                                 std::move(payload));
  }

  /// A control-style message carrying two integer parameters and an
  /// optional text argument.
  static MsgPtr control(MsgType type, NodeId origin, u32 app, i32 p0 = 0,
                        i32 p1 = 0, std::string_view text = {});

  /// A message whose payload is a plain string (trace, report, ...).
  static MsgPtr text_msg(MsgType type, NodeId origin, u32 app,
                         std::string_view body) {
    return std::make_shared<Msg>(type, origin, app, 0,
                                 Buffer::from_string(body));
  }

  /// Debug rendering for logs.
  std::string describe() const;

 private:
  MsgType type_;
  NodeId origin_;
  u32 app_;
  u32 seq_;
  BufferPtr payload_;
};

}  // namespace iov
