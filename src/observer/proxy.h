// The observer's report proxy (paper §2.2): a UNIX-side relay that
// fans in status updates from many overlay nodes and forwards them to
// the observer over a single connection, working around desktop-side
// connection-backlog limits and firewalls ("the status updates from
// overlay nodes are submitted to the proxy, who relay them with a single
// connection to the observer").
//
// The relay is one-directional by design — reports, traces and other
// node-originated updates flow node -> proxy -> observer; bootstrap and
// control-panel traffic uses each node's direct observer connection.
// Message origin fields identify the reporting node, so the observer
// needs no unwrapping.
//
// Threading: none of its own; the proxy lives on one worker of the shared
// epoll reactor (DESIGN.md §9). Its Acceptor decodes the node
// connections, and each frame goes, uncopied, into the send buffer of a
// PeerLink of kind kControl to the observer. A frame that finds no room
// there is dropped: reports are periodic, and a slow observer must not
// stall the nodes.
#pragma once

#include <atomic>

#include "common/node_id.h"
#include "engine/peer_link.h"
#include "net/acceptor.h"
#include "net/bandwidth.h"
#include "obs/metrics.h"

namespace iov::observer {

struct ProxyConfig {
  u16 port = 0;  ///< 0 picks an ephemeral port
  bool loopback_only = true;
  NodeId observer;  ///< upstream observer to relay to
};

class Proxy final : public engine::LinkOwner, private AcceptOwner {
 public:
  explicit Proxy(ProxyConfig config);
  ~Proxy() override;

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Binds the port and joins a reactor worker.
  bool start();
  /// Closes the port, the node connections and the upstream; returns
  /// once they are closed. Idempotent. Call from a driver thread.
  void stop();
  /// Waits for stop(); stop() is synchronous, so this returns at once.
  void join() {}

  /// Address nodes should use as their report sink
  /// (EngineConfig::report_proxy).
  NodeId address() const { return self_; }

  /// Messages handed to the upstream link so far (for tests).
  u64 relayed() const { return relayed_.load(std::memory_order_relaxed); }

 private:
  // AcceptOwner: node connections stay with the acceptor, which decodes
  // their frames into on_control_frame().
  void on_control_frame(MsgPtr m) override;

  // engine::LinkOwner: the upstream link (the observer sends it nothing).
  void on_link_message(engine::PeerLink&, MsgPtr) override {}
  void on_link_failed(engine::PeerLink& link, MsgType kind) override;

  ProxyConfig config_;
  NodeId self_;
  std::atomic<u64> relayed_{0};

  // What the upstream link needs besides its socket (see Observer).
  BandwidthEmulator bandwidth_;
  obs::MetricsRegistry link_metrics_;
  SlabPool slab_pool_;
  Acceptor acceptor_{*this, slab_pool_};
  reactor::Worker& worker_{reactor::Reactor::shared().pick()};
  std::unique_ptr<engine::PeerLink> upstream_;  ///< worker-owned
};

}  // namespace iov::observer
