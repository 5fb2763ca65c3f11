// Bandwidth emulation at the three scopes the paper defines (§2.2):
//
//   (1) per-node total bandwidth — incoming plus outgoing combined;
//   (2) per-link bandwidth — a specific point-to-point virtual link;
//   (3) per-node incoming and outgoing bandwidth — asymmetric nodes,
//       e.g. DSL/cable-modem style last miles.
//
// A link's send path calls acquire_send() and its receive path calls
// acquire_recv() for every message while limited() holds; the returned
// Duration is waited out before the bytes touch the socket (or the
// message becomes visible). All scopes compose: a send must clear the
// per-link bucket, the node's uplink bucket, and the node's total bucket,
// and waits for the most constrained one. With no limit set at any scope
// every acquire would return 0 and change nothing, so links skip the
// emulator (and the clock read it needs) altogether.
//
// All limits are adjustable at runtime — the observer changes them
// mid-experiment to move bottlenecks around, as in Fig 6/7 — but only
// from the owning node's thread: the emulator takes no lock. On a real
// engine the observer's kSetBandwidth arrives as a control message that
// the engine applies on its reactor worker, where its links also run;
// the simulator is single-threaded.
#pragma once

#include <unordered_map>

#include "common/node_id.h"
#include "net/token_bucket.h"

namespace iov {

/// Static limits a node can be configured with at start-up; 0 = unlimited.
/// Rates are in bytes per second.
struct BandwidthSpec {
  double node_total = 0.0;
  double node_up = 0.0;
  double node_down = 0.0;
};

class BandwidthEmulator {
 public:
  BandwidthEmulator() = default;
  explicit BandwidthEmulator(const BandwidthSpec& spec) { configure(spec); }

  /// Applies node-scope limits.
  void configure(const BandwidthSpec& spec);

  void set_node_total(double bytes_per_sec) { total_.set_rate(bytes_per_sec); }
  void set_node_up(double bytes_per_sec) { up_.set_rate(bytes_per_sec); }
  void set_node_down(double bytes_per_sec) { down_.set_rate(bytes_per_sec); }

  /// Sets the limit of the virtual link to `peer` in the given direction.
  /// 0 removes the limit.
  void set_link_up(const NodeId& peer, double bytes_per_sec);
  void set_link_down(const NodeId& peer, double bytes_per_sec);

  double node_total() const { return total_.rate(); }
  double node_up() const { return up_.rate(); }
  double node_down() const { return down_.rate(); }

  /// True while a limit is set at any scope. When false, acquire_send and
  /// acquire_recv return 0 without side effects, so callers may skip them.
  bool limited() const {
    return total_.limited() || up_.limited() || down_.limited() ||
           !link_up_.empty() || !link_down_.empty();
  }

  /// Wait required before `bytes` may be sent to `peer` at time `now`.
  Duration acquire_send(const NodeId& peer, std::size_t bytes, TimePoint now);

  /// Wait required before `bytes` may be accepted from `peer` at `now`.
  Duration acquire_recv(const NodeId& peer, std::size_t bytes, TimePoint now);

 private:
  /// Sets (or, for a rate <= 0, removes) the link bucket for `peer`.
  static void set_link(std::unordered_map<NodeId, TokenBucket>& links,
                       const NodeId& peer, double bytes_per_sec);

  TokenBucket total_;
  TokenBucket up_;
  TokenBucket down_;
  // Only limited links have a bucket: removing a limit erases it.
  std::unordered_map<NodeId, TokenBucket> link_up_;
  std::unordered_map<NodeId, TokenBucket> link_down_;
};

}  // namespace iov
