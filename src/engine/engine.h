// The iOverlay engine — an application-layer message switch (paper §2.2,
// Fig. 4, Table 1).
//
// Threads:
//   * one engine thread running the event loop in engine_main(): it owns
//     the listener and control connections (polled non-blocking, the
//     paper's select() on the publicized port), fires timers, produces
//     periodic QoS reports, and runs the switch — which is the only place
//     Algorithm::process() is ever invoked, giving algorithms the paper's
//     single-threaded guarantee;
//   * no thread of its own per peer connection: every PeerLink is a state
//     machine on the process-shared epoll reactor (see peer_link.h).
//
// The switch pulls messages from input slots (each upstream link's
// receive buffer, plus one virtual slot per locally deployed application
// source) in weighted round-robin order, hands each to the algorithm, and
// flushes the sends the algorithm issued into the per-downstream sender
// buffers. A message that could only be forwarded to a subset of its
// destinations stays in its slot's outbox, "labeled with its set of
// remaining senders, so that they may be tried in the next round" (§2.2);
// a slot with a non-empty outbox does not accept new input, which is what
// propagates back-pressure from a slow downstream all the way into the
// upstream TCP connections.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "algorithm/algorithm.h"
#include "algorithm/application.h"
#include "algorithm/engine_api.h"
#include "common/clock.h"
#include "engine/config.h"
#include "engine/peer_link.h"
#include "engine/report.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace iov::reactor {
class Reactor;
}  // namespace iov::reactor

namespace iov::engine {

/// Scopes accepted by kSetBandwidth control messages (param0); param1 is
/// the rate in bytes/second (0 = unlimited) and the text argument names
/// the peer for the link scopes.
enum BandwidthScope : i32 {
  kBwNodeTotal = 0,
  kBwNodeUp = 1,
  kBwNodeDown = 2,
  kBwLinkUp = 3,
  kBwLinkDown = 4,
};

class Engine final : public EngineApi, public InternalSink {
 public:
  /// The engine owns the algorithm; bind() happens on the engine thread.
  Engine(EngineConfig config, std::unique_ptr<Algorithm> algorithm);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Lifecycle (driver-side, thread safe) ----------------------------------

  /// Binds the listener, connects to the observer (if configured) and
  /// sends the bootstrap request, then spawns the engine thread. Returns
  /// false if the port could not be bound.
  bool start();

  /// Requests graceful termination (equivalent to receiving
  /// kTerminateNode).
  void stop();

  /// Blocks until the engine thread has exited and all links are joined.
  void join();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Driver-side configuration (before start()) -----------------------------

  /// Registers the application implementation for session `app`. Sources
  /// are activated later by kSDeploy (or deploy_source), receivers by
  /// kSJoin.
  void register_app(u32 app, std::shared_ptr<Application> application);

  /// Pre-start access to the algorithm for topology configuration.
  Algorithm& algorithm_for_setup() { return *algorithm_; }

  // --- Driver-side interaction (after start(), thread safe) -------------------

  /// Injects a message as if it had arrived on the publicized port — the
  /// same path observer commands and link-thread notifications take
  /// (this is the InternalSink implementation).
  void post(MsgPtr m) override;

  /// Convenience wrappers that post the corresponding observer control
  /// message.
  void deploy_source(u32 app);
  void terminate_source(u32 app);
  void join_app(u32 app, std::string_view arg = {});

  /// Sets the weighted-round-robin weight of the input slot fed by
  /// `peer` — how many messages the switch drains from it per round
  /// ("dynamically tunable weights", §2.2). Thread safe; weight < 1 is
  /// clamped to 1.
  void set_switch_weight(const NodeId& peer, int weight);

  /// Point-in-time view of this node's links, for harnesses and tests.
  struct LinkSnapshot {
    NodeId peer;
    LinkStats up;
    LinkStats down;
  };
  struct Snapshot {
    NodeId node;
    std::vector<LinkSnapshot> links;
    std::vector<u32> source_apps;
    std::vector<u32> joined_apps;
  };
  Snapshot snapshot() const;

  /// This node's metric registry (docs/METRICS.md). Thread safe; tools
  /// and benches read it via snapshot(), the engine ships it to the
  /// observer inside v2 kReport payloads.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // --- EngineApi (engine thread only) -----------------------------------------

  void send(const MsgPtr& m, const NodeId& dest) override;
  NodeId self() const override { return self_; }
  TimePoint now() const override { return clock_->now(); }
  Rng& rng() override { return rng_; }
  void set_timer(Duration delay, i32 timer_id) override;
  std::vector<NodeId> upstreams() const override;
  std::vector<NodeId> downstreams() const override;
  std::optional<LinkStats> upstream_stats(const NodeId& peer) const override;
  std::optional<LinkStats> downstream_stats(const NodeId& peer) const override;
  BandwidthEmulator& bandwidth() override { return bandwidth_; }
  void deliver_local(const MsgPtr& m) override;
  bool is_source(u32 app) const override;
  void trace(std::string_view text) override;
  void close_link(const NodeId& peer) override;
  void shutdown() override;

 private:
  struct Outbox {
    /// (message, remaining destination) pairs awaiting sender-buffer space.
    std::vector<std::pair<MsgPtr, NodeId>> entries;
    bool empty() const { return entries.empty(); }
  };

  struct SourceSlot {
    std::shared_ptr<Application> app_impl;
    bool active = false;
    u32 next_seq = 0;
    Outbox outbox;
  };

  // InternalSink (called from reactor workers).
  void wake() override;

  void engine_main();
  void poll_once(Duration timeout);
  void handle_accept();
  void adopt_persistent(const NodeId& peer, TcpConn conn);
  void dispatch(const MsgPtr& m);
  void handle_link_failure(const NodeId& peer, bool deliberate);
  void propagate_broken_source(u32 app, const NodeId& origin);
  void fire_due_timers();
  void run_periodic();
  bool run_switch();
  bool pump_link_slot(const NodeId& peer);
  bool pump_source_slot(u32 app, SourceSlot& slot);
  bool flush_outbox(Outbox& outbox);
  void flush_control_backlogs();
  PeerLink* get_or_dial(const NodeId& dest);
  PeerLink* find_link(const NodeId& peer) const;
  void remove_link(const NodeId& peer);
  void apply_set_bandwidth(const MsgPtr& m);
  void log_fd_exhaustion(const char* where);
  void send_report();
  NodeReport build_report() const;
  void connect_observer();
  void deliver_to_algorithm(const MsgPtr& m);

  EngineConfig config_;
  std::unique_ptr<Algorithm> algorithm_;
  const Clock* clock_;
  Rng rng_;
  BandwidthEmulator bandwidth_;

  // Observability: registry first, then cached hot-path handles (reference
  // members, so declaration order matters for the ctor init list).
  obs::MetricsRegistry metrics_;
  obs::Histogram& switch_latency_;   ///< recv-buffer enqueue -> switch pop
  obs::Histogram& switch_process_;   ///< algorithm process + outbox flush
  obs::Counter& switch_msgs_;
  obs::Counter& switch_rounds_;
  obs::Counter& ctrl_msgs_;
  obs::Counter& timers_fired_;
  obs::Counter& reports_sent_;
  obs::Counter& traces_sent_;
  obs::Counter& link_closes_;    ///< deliberate teardowns (close_link/sever)
  obs::Counter& link_failures_;  ///< crash detections (EOF, error, timeout)
  obs::Gauge& engine_open_fds_;  ///< fds this node holds open

  NodeId self_;
  TcpListener listener_;
  TimePoint start_time_ = 0;

  /// The process-shared epoll pool that drives every link (DESIGN.md §9).
  reactor::Reactor& reactor_;

  /// While now() < this, the listener is left out of the poll set —
  /// fd-exhaustion backoff (EMFILE/ENFILE on accept). Engine thread only.
  TimePoint accept_backoff_until_ = 0;
  TimePoint last_fd_warn_ = 0;  ///< throttles the fd-exhaustion warning

  /// Recycled large-frame payload slabs shared by every link's receiver
  /// (DESIGN.md §8). Declared before links_ so it outlives them; the
  /// slabs themselves may outlive both (shared pool core).
  SlabPool slab_pool_;

  // Links and app registry; state_mu_ guards map *structure* so snapshot()
  // can read from other threads (contents are engine-thread-owned or
  // internally synchronized).
  mutable std::mutex state_mu_;
  std::unordered_map<NodeId, std::unique_ptr<PeerLink>> links_;
  std::map<u32, SourceSlot> sources_;
  std::set<u32> joined_;

  // Engine-thread-only state (switch_weight_ is additionally guarded by
  // state_mu_ so drivers can tune it at runtime).
  std::unordered_map<NodeId, Outbox> link_outbox_;
  std::unordered_map<NodeId, int> switch_weight_;
  std::unordered_map<NodeId, std::deque<MsgPtr>> control_backlog_;
  std::unordered_map<NodeId, std::set<u32>> up_apps_;    // peer -> apps recvd
  std::unordered_map<NodeId, std::set<u32>> down_apps_;  // peer -> apps sent
  std::set<std::pair<u32, NodeId>> broken_seen_;  // Domino dedup
  std::vector<NodeId> rr_order_;
  std::vector<Inbound> switch_batch_;  // scratch for pump_link_slot
  std::size_t rr_offset_ = 0;
  bool rr_dirty_ = true;
  Outbox* current_outbox_ = nullptr;
  const Msg* current_msg_ = nullptr;

  struct TimerEntry {
    TimePoint due;
    i32 id;
    u64 seq;
    bool operator>(const TimerEntry& o) const {
      return std::tie(due, seq) > std::tie(o.due, o.seq);
    }
  };
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  u64 timer_seq_ = 0;

  // Observer plane (engine thread only).
  std::optional<TcpConn> observer_conn_;
  std::optional<TcpConn> proxy_conn_;
  TimePoint next_report_ = 0;
  TimePoint next_throughput_ = 0;
  TimePoint next_observer_retry_ = 0;

  // Internal message queue (reactor workers -> engine thread).
  std::mutex internal_mu_;
  std::deque<MsgPtr> internal_q_;
  Fd wake_fd_;

  // Transient control connections accepted on the publicized port.
  std::vector<TcpConn> control_conns_;

  std::thread engine_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace iov::engine
