// The observer — iOverlay's centralized monitoring, debugging and control
// authority (paper §2.2, "The observer and its proxy").
//
// The paper's observer is a Windows/C# GUI; its *protocol* roles are what
// algorithms and engines depend on, and this class implements all of them
// headlessly (the substitution is documented in DESIGN.md):
//
//   * bootstrap: replies to kBoot with a random subset of alive nodes;
//   * monitoring: collects periodic kReport status updates (buffer
//     lengths, QoS measurements, upstream/downstream lists) and exposes
//     them programmatically (the GUI's topology map becomes the
//     `topology_dot()` dump);
//   * control panel: deploys applications, makes nodes join/leave
//     sessions, terminates sources and nodes, adjusts emulated
//     bandwidth at runtime, and sends arbitrary algorithm-specific
//     control messages with two integer parameters;
//   * trace sink: records the content of kTrace messages centrally.
//
// Each node holds one persistent control connection to the observer
// (dialed at engine start); the observer writes commands down the same
// connection the node reports on.
//
// Threading: none of its own. Like an engine, the observer lives on one
// worker of the shared epoll reactor (DESIGN.md §9): its Acceptor, one
// PeerLink of kind kControl per node and all its state. The driver calls
// below run there through Worker::call; make them from a driver thread,
// never from a reactor worker.
#pragma once

#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/node_id.h"
#include "common/rng.h"
#include "engine/peer_link.h"
#include "engine/report.h"
#include "net/acceptor.h"
#include "net/bandwidth.h"
#include "obs/metrics.h"

namespace iov::observer {

struct ObserverConfig {
  /// Listening port; 0 picks an ephemeral port.
  u16 port = 0;
  bool loopback_only = true;
  /// "The number of initial nodes in such a subset is configurable."
  std::size_t bootstrap_subset = 8;
  /// Path of the trace log file; empty keeps traces in memory only.
  std::string trace_path;
  u64 seed = 42;
};

struct TraceRecord {
  TimePoint at = 0;
  NodeId node;
  std::string text;
};

class Observer final : public engine::LinkOwner, private AcceptOwner {
 public:
  explicit Observer(ObserverConfig config);
  ~Observer();

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Binds the port, opens the trace log and joins a reactor worker.
  bool start();
  /// Closes the port and every node connection; returns once they are
  /// closed. Idempotent.
  void stop();
  /// Waits for stop(); stop() is synchronous, so this returns at once.
  void join() {}

  /// Address nodes should be configured with (EngineConfig::observer).
  NodeId address() const { return self_; }

  // --- Monitoring (thread safe) ----------------------------------------------

  struct NodeInfo {
    NodeId id;
    bool alive = false;
    TimePoint booted_at = 0;
    TimePoint last_seen = 0;
    std::optional<engine::NodeReport> last_report;
    /// Parsed from the v2 `metrics=` report line; absent for v1 nodes.
    std::optional<obs::MetricsSnapshot> last_metrics;
  };

  std::vector<NodeInfo> nodes() const;
  std::optional<NodeInfo> node(const NodeId& id) const;
  std::size_t alive_count() const;

  /// All traces collected so far (also mirrored to trace_path if set).
  std::vector<TraceRecord> traces() const;

  /// Graphviz rendering of the current overlay topology as reported by the
  /// nodes (each node's downstream list becomes directed edges) — the
  /// headless stand-in for the paper's live topology map (Fig. 2/10).
  std::string topology_dot() const;

  // --- Metrics aggregation (thread safe, docs/METRICS.md) ----------------------

  /// Merge of every node's latest metrics snapshot (each sample labeled
  /// `node=<id>`) plus the observer's own registry (`node=observer`).
  obs::MetricsSnapshot metrics_snapshot() const;

  /// Prometheus text exposition of metrics_snapshot().
  std::string prometheus_text() const { return metrics_snapshot().to_prometheus(); }

  /// JSON array dump of metrics_snapshot().
  std::string metrics_json() const { return metrics_snapshot().to_json(); }

  /// CSV dump of metrics_snapshot().
  std::string metrics_csv() const { return metrics_snapshot().to_csv(); }

  /// The observer's own registry (report/trace/boot counts, report RTT).
  obs::MetricsRegistry& metrics() { return metrics_; }

  // --- Control panel (thread safe) ---------------------------------------------

  /// Queues an arbitrary control message to `node`. Returns false if the
  /// node has no live connection or its send buffer is full (a node that
  /// stops reading never blocks the caller).
  bool send_control(const NodeId& node, MsgType type, i32 p0 = 0, i32 p1 = 0,
                    std::string_view text = {});

  /// Deploys the application data source for session `app` on `node`.
  bool deploy(const NodeId& node, u32 app) {
    return send_control(node, MsgType::kSDeploy, static_cast<i32>(app));
  }

  /// Terminates the data source of `app` on `node`.
  bool terminate_source(const NodeId& node, u32 app) {
    return send_control(node, MsgType::kSTerminate, static_cast<i32>(app));
  }

  /// Asks `node` to join session `app` (arg is algorithm-specific).
  bool join_app(const NodeId& node, u32 app, std::string_view arg = {}) {
    return send_control(node, MsgType::kSJoin, static_cast<i32>(app), 0, arg);
  }

  bool leave_app(const NodeId& node, u32 app) {
    return send_control(node, MsgType::kSLeave, static_cast<i32>(app));
  }

  /// Terminates `node` entirely ("the observer may choose to terminate a
  /// node at will").
  bool terminate_node(const NodeId& node) {
    return send_control(node, MsgType::kTerminateNode);
  }

  /// Fault injection: tears down the node↔peer link as if it had failed;
  /// both ends run the non-deliberate failure path (kBrokenLink, Domino).
  bool sever_link(const NodeId& node, const NodeId& peer) {
    return send_control(node, MsgType::kSeverLink, 0, 0, peer.to_string());
  }

  /// Fault injection: sets the emulated message-loss probability on
  /// `node`'s sender side towards `peer` (0 disables).
  bool set_loss(const NodeId& node, const NodeId& peer, double probability) {
    if (probability < 0.0) probability = 0.0;
    if (probability > 1.0) probability = 1.0;
    return send_control(node, MsgType::kSetLoss,
                        static_cast<i32>(probability * 1e6), 0,
                        peer.to_string());
  }

  /// Runtime bandwidth emulation control; `scope` is a
  /// engine::BandwidthScope, rate in bytes/second, `peer` only for the
  /// link scopes.
  bool set_bandwidth(const NodeId& node, i32 scope, double bytes_per_sec,
                     const NodeId& peer = NodeId());

  /// Announces session `app`'s data source to `node` (paper type
  /// sAnnounce; the tree algorithms use it to learn the session root).
  bool announce(const NodeId& node, u32 app, const NodeId& source) {
    return send_control(node, MsgType::kSAnnounce, static_cast<i32>(app), 0,
                        source.to_string());
  }

  /// Requests an immediate status report from `node`; the next kReport
  /// from it closes the round-trip for iov_observer_report_rtt_seconds.
  bool request_report(const NodeId& node);

 private:
  // engine::LinkOwner: the node connections.
  void on_link_message(engine::PeerLink& link, MsgPtr m) override;
  void on_link_failed(engine::PeerLink& link, MsgType kind) override;

  // AcceptOwner: every control connection becomes a node link.
  void on_hello(const Hello& hello, TcpConn& conn) override;


  ObserverConfig config_;
  Rng rng_;
  NodeId self_;

  // Observability: registry first, cached handles after (reference
  // members — declaration order fixes ctor init order).
  obs::MetricsRegistry metrics_;
  obs::Counter& boots_seen_;
  obs::Counter& reports_seen_;
  obs::Counter& malformed_reports_;
  obs::Counter& traces_seen_;
  obs::Histogram& report_rtt_;

  // What the node links need besides their sockets: an emulator they
  // skip, and a registry for their meters, kept out of the exports.
  BandwidthEmulator bandwidth_;
  obs::MetricsRegistry link_metrics_;
  SlabPool slab_pool_;
  Acceptor acceptor_{*this, slab_pool_};
  reactor::Worker& worker_{reactor::Reactor::shared().pick()};

  // Everything below is owned by the worker thread.
  std::unordered_map<NodeId, std::unique_ptr<engine::PeerLink>> links_;
  std::map<NodeId, NodeInfo> nodes_;
  std::vector<TraceRecord> traces_;
  std::map<NodeId, TimePoint> pending_requests_;  ///< kRequest sent, no reply
  std::ofstream trace_log_;  ///< trace_path, open from start() to stop()
};

}  // namespace iov::observer
