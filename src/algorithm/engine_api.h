// The interface an algorithm sees of its engine.
//
// The paper's central interface claim (§2.1) is that "the application
// developer only needs to be aware of one function of the engine: the
// send function", with everything else message driven. EngineApi::send is
// that function. The remaining members are the engine facilities the
// paper exposes implicitly — measurements on request, emulated bandwidth
// control, timers (delivered as kTimer *messages*, keeping algorithms
// purely reactive), and local application delivery.
//
// Two substrates implement this interface:
//   * engine::Engine  — real threads + TCP (src/engine), and
//   * sim::SimEngine  — deterministic discrete-event execution (src/sim),
// which is what lets one algorithm implementation run both on live
// sockets and inside reproducible large-scale experiments.
//
// Threading contract: every method here may only be called from within
// Algorithm callbacks (i.e., on the node's reactor worker, the only
// thread that runs the engine). The engine guarantees
// the whole algorithm executes single-threaded (§2.1), so algorithms need
// no locks — and in exchange must never block.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/node_id.h"
#include "common/rng.h"
#include "common/types.h"
#include "message/msg.h"
#include "net/bandwidth.h"

namespace iov {

/// Measurements of one direction of one virtual link.
struct LinkStats {
  NodeId peer;
  double rate_bps = 0.0;  ///< bytes per second over the meter window
  u64 total_bytes = 0;
  u64 total_msgs = 0;
  u64 lost_bytes = 0;     ///< bytes dropped by failures
  u64 lost_msgs = 0;
  std::size_t buffer_len = 0;  ///< current queue occupancy
  std::size_t buffer_cap = 0;
};

class EngineApi {
 public:
  virtual ~EngineApi() = default;

  // --- The interface of §2.1 ----------------------------------------------

  /// Sends `m` to `dest`, opening a persistent connection if none exists.
  /// Never fails from the algorithm's perspective ("send() has a return
  /// type of void, and all abnormal results ... are handled by the engine
  /// transparently", §2.3): failures surface later as kBrokenLink /
  /// kBrokenSource messages.
  ///
  /// A *data* message received in process() may be passed here verbatim
  /// (zero copy); any other received message must be clone()d first
  /// (§2.3). Debug builds assert on violations.
  virtual void send(const MsgPtr& m, const NodeId& dest) = 0;

  // --- Identity and time ----------------------------------------------------

  /// This node's publicized id (IP:port).
  virtual NodeId self() const = 0;

  /// Current time on this substrate's clock (virtual under simulation).
  virtual TimePoint now() const = 0;

  /// Deterministic per-node random stream.
  virtual Rng& rng() = 0;

  // --- Timers ----------------------------------------------------------------

  /// Schedules a kTimer message with param0 == `timer_id` to be delivered
  /// to the algorithm after `delay`. One-shot; re-arm from the handler for
  /// periodic behaviour.
  virtual void set_timer(Duration delay, i32 timer_id) = 0;

  // --- Topology and measurements --------------------------------------------

  /// Peers with live incoming connections to this node.
  virtual std::vector<NodeId> upstreams() const = 0;

  /// Peers with live outgoing connections from this node.
  virtual std::vector<NodeId> downstreams() const = 0;

  /// Measurements of the incoming link from `peer`, if one exists.
  virtual std::optional<LinkStats> upstream_stats(
      const NodeId& peer) const = 0;

  /// Measurements of the outgoing link to `peer`, if one exists.
  virtual std::optional<LinkStats> downstream_stats(
      const NodeId& peer) const = 0;

  // --- Emulation -------------------------------------------------------------

  /// This node's emulated-bandwidth control (per-node and per-link caps).
  virtual BandwidthEmulator& bandwidth() = 0;

  // --- Local application -----------------------------------------------------

  /// Hands a data message to the locally registered application for
  /// session m->app(), if this node joined it as a receiver. Called by
  /// algorithms when they decide a message is (also) consumed locally.
  virtual void deliver_local(const MsgPtr& m) = 0;

  /// True if this node currently hosts the data source of `app`.
  virtual bool is_source(u32 app) const = 0;

  // --- Control ----------------------------------------------------------------

  /// Appends a line to the centralized trace log (observer type kTrace).
  virtual void trace(std::string_view text) = 0;

  /// Tears down the persistent connection to `peer` (both directions),
  /// notifying the peer's engine via EOF.
  virtual void close_link(const NodeId& peer) = 0;

  /// Requests graceful termination of this node.
  virtual void shutdown() = 0;
};

}  // namespace iov
