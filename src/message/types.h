// Message-type registry.
//
// Every application-layer message in iOverlay carries a 4-byte type in its
// header, and the whole middleware is message driven: the engine and the
// observer communicate with algorithms exclusively by producing messages of
// well-known types, and algorithms are switch statements over these types
// (paper §2.3, Table 2).
//
// The numeric space is partitioned:
//   [0x0000, 0x00ff]  engine & transport plumbing
//   [0x0100, 0x01ff]  observer control plane
//   [0x0200, 0x02ff]  engine -> algorithm notifications (QoS, failures)
//   [0x0300, ...)     algorithm-specific types (kFirstUserType), e.g. the
//                     tree-construction and service-federation protocols.
#pragma once

#include "common/types.h"

namespace iov {

enum class MsgType : u32 {
  kInvalid = 0,

  // --- Application data ---------------------------------------------------
  /// An application data message; the only type an algorithm *must* handle.
  kData = 0x0001,

  // --- Bootstrap / observer plane ------------------------------------------
  /// Node -> observer: request to join the network (paper type `boot`).
  kBoot = 0x0100,
  /// Observer -> node: random subset of alive nodes (bootstrap reply).
  kBootReply = 0x0101,
  /// Observer -> node: request for a status update (paper type `request`).
  kRequest = 0x0102,
  /// Node -> observer: periodic status update (buffer lengths, QoS
  /// measurements, upstream/downstream lists).
  kReport = 0x0103,
  /// Node -> observer: free-form debugging/trace record, logged centrally.
  kTrace = 0x0104,
  /// Observer -> node: deploy an application data source (paper `sDeploy`).
  kSDeploy = 0x0105,
  /// Observer -> node: terminate an application data source (`sTerminate`).
  kSTerminate = 0x0106,
  /// Observer -> node: join a particular application session (`sJoin`).
  kSJoin = 0x0107,
  /// Observer -> node: leave a particular application session (`sLeave`).
  kSLeave = 0x0108,
  /// Observer -> node: terminate this node entirely and exit gracefully.
  kTerminateNode = 0x0109,
  /// Observer -> node: update emulated bandwidth. Params select the scope
  /// (per-node total / uplink / downlink / per-link) and the rate.
  kSetBandwidth = 0x010a,
  /// Observer -> node: algorithm-specific control with two integer
  /// parameters (paper §2.2, "the observer is also able to send new types
  /// of algorithm-specific control messages ... with two optional integer
  /// parameters").
  kControl = 0x010b,
  /// Observer -> node: announce the data source of a session (`sAnnounce`).
  kSAnnounce = 0x010c,
  /// Observer -> node: tear down the link to the peer named in the text
  /// argument as if it had failed (fault injection; the peer perceives
  /// the TCP EOF and runs the same non-deliberate failure path).
  kSeverLink = 0x010d,
  /// Observer -> node: set the emulated message-loss probability towards
  /// the peer named in the text argument; param0 carries the probability
  /// in parts per million (fault injection).
  kSetLoss = 0x010e,

  // --- Engine -> algorithm notifications -----------------------------------
  /// The application source at the origin of this message has failed; clear
  /// internal state (paper type `BrokenSource`, the Domino effect carrier).
  kBrokenSource = 0x0200,
  /// A directly connected peer link failed or was torn down. The origin
  /// field names the lost peer.
  kBrokenLink = 0x0201,
  /// Periodic throughput measurement from an upstream link (paper type
  /// `UpThroughput`); param0 carries bytes/s.
  kUpThroughput = 0x0202,
  /// Periodic throughput measurement to a downstream link; param0 carries
  /// bytes/s.
  kDownThroughput = 0x0203,
  /// A timer previously scheduled by the algorithm fired; param0 carries
  /// the algorithm-chosen timer id.
  kTimer = 0x0204,
  /// Engine-internal: a link detected a failed upstream. Never
  /// delivered to algorithms; the engine converts it to kBrokenLink /
  /// kBrokenSource after teardown.
  kPeerFailed = 0x0205,
  /// Engine-internal: a sender connection reported a write failure.
  kSendFailed = 0x0206,
  /// Round-trip latency probe and its echo.
  kPing = 0x0207,
  kPong = 0x0208,

  // --- First identifier available to algorithm protocols -------------------
  kFirstUserType = 0x0300,
};

constexpr u32 to_wire(MsgType t) { return static_cast<u32>(t); }
constexpr MsgType from_wire(u32 v) { return static_cast<MsgType>(v); }

/// Human-readable name for logs and the observer's trace files; returns
/// "user(0xNNN)" style names for algorithm-specific types.
const char* msg_type_name(MsgType t);

/// True for types originated by the observer's control plane.
constexpr bool is_observer_type(MsgType t) {
  return to_wire(t) >= 0x0100 && to_wire(t) <= 0x01ff;
}

/// True for engine-internal types that must never reach an algorithm.
constexpr bool is_engine_internal(MsgType t) {
  return t == MsgType::kPeerFailed || t == MsgType::kSendFailed;
}

}  // namespace iov
