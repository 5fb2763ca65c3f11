// Engine start-up configuration. Everything an iOverlay node can be
// parameterized with at launch (paper §2.2): port, buffer capacities,
// emulated bandwidth, and the observer's address for bootstrap.
#pragma once

#include "common/node_id.h"
#include "common/types.h"
#include "net/bandwidth.h"

namespace iov::engine {

struct EngineConfig {
  /// TCP port to publicize; 0 lets the engine pick an available port
  /// (paper §2.2). Virtualized nodes on one host simply use distinct
  /// ports.
  u16 port = 0;

  /// IPv4 address other nodes reach this node at, host byte order.
  /// Defaults to loopback, the virtualized single-server deployment.
  u32 advertised_ip = 0x7f000001;

  /// Bind only to 127.0.0.1 (safe default for local experiments).
  bool loopback_only = true;

  /// Capacity, in messages, of each receiver buffer (paper experiments
  /// use 5 for the back-pressure runs and 10000 for the large-buffer
  /// runs).
  std::size_t recv_buffer_msgs = 10;

  /// Capacity, in messages, of each sender buffer.
  std::size_t send_buffer_msgs = 10;

  /// Emulated bandwidth limits at start-up; adjustable at runtime.
  BandwidthSpec bandwidth;

  /// The observer's address; an invalid NodeId runs the node standalone
  /// (no bootstrap, no status reports) — handy for unit tests.
  NodeId observer;

  /// Optional report relay (observer::Proxy). When set, kReport and
  /// kTrace messages go here instead of the direct observer connection
  /// (paper §2.2, the firewall/fan-in proxy); bootstrap and control
  /// traffic always uses the direct connection.
  NodeId report_proxy;

  /// Period of status reports to the observer.
  Duration report_interval = seconds(1.0);

  /// Period of kUp/DownThroughput measurements delivered to the algorithm.
  Duration throughput_interval = millis(500);

  /// If > 0, an incoming link with no traffic for this long while other
  /// links are active is treated as failed (§2.2 failure detection by
  /// inactivity). Disabled by default.
  Duration idle_failure_timeout = 0;

  /// Timeout for dialing a peer.
  Duration connect_timeout = millis(500);

  /// Default switch weight of every input slot (messages per round;
  /// the weighted-round-robin weights of §2.2). Tunable per upstream at
  /// runtime via Engine::set_switch_weight.
  int default_switch_weight = 1;

  /// If > 0, caps each persistent connection's kernel socket buffers
  /// (SO_SNDBUF + SO_RCVBUF) at roughly this many bytes. Modern kernels
  /// auto-tune buffers into the megabytes, which masks back-pressure at
  /// emulated-KB/s rates for a long time; bandwidth-emulation experiments
  /// set this to a 2004-era 64 KB so Fig 6's dynamics converge within
  /// seconds. 0 leaves the system defaults (auto-tuning).
  ///
  /// The default is a locked 256 KB, not 0 (DESIGN.md §8): an explicit
  /// size locks the buffers (SOCK_RCVBUF_LOCK), exempting them from the
  /// kernel's window clamp. Under auto-tuning a saturated loopback link
  /// can hoard a multi-megabyte send buffer, trip that clamp, and shrink
  /// the peer's receive window below the loopback MSS, collapsing the
  /// link into RTO-paced retransmission stalls (~100 msgs/s) — a mode
  /// the batched wire path's 32-message bursts reach readily, stalling
  /// even control-plane traffic (kBrokenSource behind a clamped
  /// backlog). 256 KB is the smallest locked size that keeps two
  /// loopback-MSS segments in flight; smaller locked sizes reintroduce
  /// the stall from the other side (window below one MSS).
  int socket_buffer_bytes = 256 * 1024;

  /// When set, kTrace output is appended to this local file *instead of*
  /// being sent to the observer ("if the volume of traces becomes large,
  /// it may be more favorable to log them locally at each node, in which
  /// case iOverlay provides scripts to collect them", §2.2 — see
  /// tools/collect_traces.sh).
  std::string local_trace_path;

  /// Seed for this node's deterministic random stream.
  u64 seed = 1;
};

}  // namespace iov::engine
