// The iOverlay engine — an application-layer message switch (paper §2.2,
// Fig. 4, Table 1).
//
// Threads: none of its own. An engine is a citizen of one worker of the
// process-shared epoll reactor (DESIGN.md §9), picked round-robin by
// start(). Its listener, its transient control connections, its
// observer/proxy connections, every one of its PeerLinks, its timers and
// its switch are callbacks of that one worker's loop. Paper §2.2 runs
// every algorithm on a single engine thread; here Algorithm::process()
// is only ever invoked on the engine's worker, so algorithms keep the
// single-threaded guarantee by construction, and an idle node costs no
// CPU at all: nothing of it runs until a socket, a timer or a driver call
// gives it work.
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
//
// The switch runs as a pass deferred to the end of the worker's event
// batch, scheduled whenever a link pushed into a receive buffer, freed
// send space or delivered a control message (and by timers and driver
// calls). A pass runs rounds until nothing moves or its message budget is
// spent; every link it pushed to is pumped once after the pass, so sends
// stay batched. A deployed source whose next_message() returns nothing is
// asked again by a 1 ms timer that exists only while that is the case.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "algorithm/algorithm.h"
#include "algorithm/application.h"
#include "algorithm/engine_api.h"
#include "common/clock.h"
#include "engine/config.h"
#include "engine/peer_link.h"
#include "engine/report.h"
#include "net/acceptor.h"
#include "net/reactor/reactor.h"
#include "net/socket.h"
#include "obs/metrics.h"


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

class Engine final : public EngineApi,
                     public LinkOwner,
                     private AcceptOwner {
 public:
  /// The engine owns the algorithm; bind() happens on the engine's worker.
  Engine(EngineConfig config, std::unique_ptr<Algorithm> algorithm);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Lifecycle (driver-side, thread safe) ----------------------------------

  /// Binds the listener and picks this node's reactor worker, then hands
  /// the rest of the boot (algorithm bind, observer dial and bootstrap
  /// request, on_start) to that worker. Returns false if the port could
  /// not be bound.
  bool start();

  /// Requests graceful termination (equivalent to receiving
  /// kTerminateNode).
  void stop();

  /// Blocks until the engine has torn down on its worker: every link
  /// closed, every timer cancelled, no callback of this engine left to
  /// run. Call from a driver thread, never from a reactor worker.
  void join();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The reactor worker this node runs on; null before start(). Code that
  /// must run in the node's context (tests inspecting algorithm state,
  /// harnesses poking two nodes at once) goes through its call().
  reactor::Worker* worker() const { return worker_; }

  // --- Driver-side configuration (before start()) -----------------------------

  /// Registers the application implementation for session `app`. Sources
  /// are activated later by kSDeploy (or deploy_source), receivers by
  /// kSJoin.
  void register_app(u32 app, std::shared_ptr<Application> application);

  /// Pre-start access to the algorithm for topology configuration.
  Algorithm& algorithm_for_setup() { return *algorithm_; }

  // --- Driver-side interaction (thread safe) ----------------------------------

  /// Injects a message as if it had arrived on the publicized port — the
  /// same path observer commands take. Before start() the message waits
  /// for the boot (post from the thread that calls start()).
  void post(MsgPtr m);

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
  /// Thread safe: taken on the engine's worker (the caller waits).
  Snapshot snapshot() const;

  /// This node's metric registry (docs/METRICS.md). Thread safe; tools
  /// and benches read it via snapshot(), the engine ships it to the
  /// observer inside v2 kReport payloads.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // --- EngineApi (engine's worker only) ---------------------------------------

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

  // AcceptOwner: the publicized port.
  void on_hello(const Hello& hello, TcpConn& conn) override;
  void on_control_frame(MsgPtr m) override;
  void on_accept_exhausted() override;

  // LinkOwner.
  void on_link_message(PeerLink& link, MsgPtr m) override;
  void on_link_ready(PeerLink& link) override;
  void on_link_failed(PeerLink& link, MsgType kind) override;
  void on_first_frame(PeerLink& link) override;

  void boot();
  void teardown();
  void enqueue(MsgPtr m);
  void drain_inbox();
  void schedule_pass();
  void run_pass();
  void adopt_persistent(const NodeId& peer, TcpConn conn);
  void dispatch(const MsgPtr& m);
  void handle_link_failure(const NodeId& peer, bool deliberate);
  void propagate_broken_source(u32 app, const NodeId& origin);
  Duration until_next_tick(Duration period) const;
  void on_throughput_tick();
  void on_report_tick();
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
  std::unique_ptr<PeerLink> dial_control(const NodeId& dest);
  bool send_control(PeerLink* link, const MsgPtr& m);
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
  obs::Histogram& loop_lag_;     ///< timer due -> run delay on the worker
  /// Meters of the observer/proxy connections, kept out of the node's
  /// report: they are not overlay links.
  obs::MetricsRegistry control_metrics_;

  NodeId self_;
  TimePoint start_time_ = 0;
  TimePoint last_fd_warn_ = 0;  ///< throttles the fd-exhaustion warning

  /// The process-shared epoll pool, and the worker this node lives on
  /// (set by start(), fixed for life).
  reactor::Reactor& reactor_;
  reactor::Worker* worker_ = nullptr;

  /// Recycled large-frame payload slabs shared by every link's receiver
  /// (DESIGN.md §8). Declared before links_ so it outlives them; the
  /// slabs themselves may outlive both (shared pool core).
  SlabPool slab_pool_;

  /// The publicized port; control connections read into slab_pool_.
  Acceptor acceptor_{*this, slab_pool_};

  // Everything below is owned by the worker thread.
  std::unordered_map<NodeId, std::unique_ptr<PeerLink>> links_;
  std::map<u32, SourceSlot> sources_;
  std::set<u32> joined_;

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

  /// Control messages and driver posts awaiting the next switch pass.
  std::deque<MsgPtr> inbox_;
  bool pass_scheduled_ = false;
  std::size_t pass_msgs_ = 0;    ///< messages switched in the current pass
  std::size_t pass_bytes_ = 0;   ///< their wire bytes
  bool dialed_in_pass_ = false;  ///< the pass created a link: yield soon
  bool source_starved_ = false;  ///< an active source had nothing this round
  bool repoll_armed_ = false;    ///< the source re-poll timer is pending

  // Observer plane.
  std::unique_ptr<PeerLink> observer_link_;
  std::unique_ptr<PeerLink> proxy_link_;
  bool observer_retry_armed_ = false;

  bool stop_requested_ = false;
  bool torn_down_ = false;

  // Driver-side lifecycle.
  std::vector<MsgPtr> pre_start_;  ///< posts made before start()
  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  bool done_ = false;  // guarded by done_mu_
};

}  // namespace iov::engine
