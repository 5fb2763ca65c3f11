// Bandwidth emulation at the three scopes the paper defines (§2.2):
//
//   (1) per-node total bandwidth — incoming plus outgoing combined;
//   (2) per-link bandwidth — a specific point-to-point virtual link;
//   (3) per-node incoming and outgoing bandwidth — asymmetric nodes,
//       e.g. DSL/cable-modem style last miles.
//
// A link's send path calls acquire_send() and its receive path calls
// acquire_recv() for every message; the returned Duration is waited out
// before the bytes touch the socket (or the message becomes visible). All scopes compose: a send must clear the
// per-link bucket, the node's uplink bucket, and the node's total bucket,
// and waits for the most constrained one.
//
// All limits are adjustable at runtime from any thread (the observer
// changes them mid-experiment to move bottlenecks around, as in Fig 6/7).
#pragma once

#include <memory>
#include <mutex>
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

  /// Wait required before `bytes` may be sent to `peer` at time `now`.
  Duration acquire_send(const NodeId& peer, std::size_t bytes, TimePoint now);

  /// Wait required before `bytes` may be accepted from `peer` at `now`.
  Duration acquire_recv(const NodeId& peer, std::size_t bytes, TimePoint now);

 private:
  TokenBucket* link_bucket(const NodeId& peer, bool up);

  TokenBucket total_;
  TokenBucket up_;
  TokenBucket down_;

  std::mutex links_mu_;
  // Buckets are held by unique_ptr so references handed to links stay
  // valid while the map rehashes.
  std::unordered_map<NodeId, std::unique_ptr<TokenBucket>> link_up_;
  std::unordered_map<NodeId, std::unique_ptr<TokenBucket>> link_down_;
};

}  // namespace iov
