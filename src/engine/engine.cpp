#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <fstream>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metric_names.h"

namespace iov::engine {

namespace {
constexpr Duration kObserverRetry = seconds(1.0);
/// How soon a deployed source that had nothing to emit is asked again.
constexpr Duration kSourceRepoll = millis(1);
/// Messages, and bytes, one switch pass may move before it yields the
/// worker to the other nodes on it and to the sends it queued (the pass
/// continues right after). The byte bound keeps large-message bursts —
/// and the payload slabs they pin — to about a socket buffer's worth.
constexpr std::size_t kPassBudget = 256;
constexpr std::size_t kPassBudgetBytes = 1 << 20;
}  // namespace

Engine::Engine(EngineConfig config, std::unique_ptr<Algorithm> algorithm)
    : config_(std::move(config)),
      algorithm_(std::move(algorithm)),
      clock_(&RealClock::instance()),
      rng_(config_.seed),
      bandwidth_(config_.bandwidth),
      switch_latency_(metrics_.histogram(obs::names::kSwitchLatencySeconds)),
      switch_process_(metrics_.histogram(obs::names::kSwitchProcessSeconds)),
      switch_msgs_(metrics_.counter(obs::names::kSwitchMessagesTotal)),
      switch_rounds_(metrics_.counter(obs::names::kSwitchRoundsTotal)),
      ctrl_msgs_(metrics_.counter(obs::names::kEngineControlMessagesTotal)),
      timers_fired_(metrics_.counter(obs::names::kEngineTimersFiredTotal)),
      reports_sent_(metrics_.counter(obs::names::kEngineReportsSentTotal)),
      traces_sent_(metrics_.counter(obs::names::kEngineTracesTotal)),
      link_closes_(metrics_.counter(obs::names::kEngineLinkClosesTotal)),
      link_failures_(metrics_.counter(obs::names::kEngineLinkFailuresTotal)),
      engine_open_fds_(metrics_.gauge(obs::names::kEngineOpenFds)),
      // Registered up front so every node's kReport carries the metric
      // even before its first link exists.
      loop_lag_(metrics_.histogram(obs::names::kReactorLoopLagSeconds)),
      reactor_(reactor::Reactor::shared()) {
  // A node owns no OS thread: it runs on a worker of the shared reactor.
  metrics_.gauge(obs::names::kEngineThreads).set(0);
  slab_pool_.set_metrics(
      &metrics_.counter(obs::names::kPoolSlabAcquiresTotal,
                        {{"result", "hit"}}),
      &metrics_.counter(obs::names::kPoolSlabAcquiresTotal,
                        {{"result", "miss"}}),
      &metrics_.gauge(obs::names::kPoolSlabFreeBytes));
}

Engine::~Engine() {
  stop();
  join();
}

// --- Lifecycle ---------------------------------------------------------------

bool Engine::start() {
  suppress_sigpipe();
  // A process hosting many nodes needs an fd per link; lift the soft
  // RLIMIT_NOFILE to the hard cap before the first socket is made.
  const u64 fd_cap = raise_nofile_limit();
  static std::once_flag boot_log_once;
  std::call_once(boot_log_once, [&] {
    IOV_LOG_INFO("engine") << "engines run on the shared epoll reactor, "
                           << reactor_.threads() << " worker(s); fd cap "
                           << fd_cap;
  });
  if (!acceptor_.listen(config_.port, config_.loopback_only,
                        config_.socket_buffer_bytes)) {
    return false;
  }
  self_ = NodeId(config_.advertised_ip, acceptor_.port());

  worker_ = &reactor_.pick();
  running_.store(true, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  worker_->submit([this] { boot(); });
  return true;
}

void Engine::boot() {
  algorithm_->bind(*this);
  start_time_ = clock_->now();
  acceptor_.start(*worker_);
  worker_->schedule_after(
      until_next_tick(config_.throughput_interval), this,
      [this] { on_throughput_tick(); }, &loop_lag_);
  if (config_.observer.valid()) {
    worker_->schedule_after(
        until_next_tick(config_.report_interval), this,
        [this] { on_report_tick(); }, &loop_lag_);
  }
  connect_observer();
  algorithm_->on_start();
  for (auto& m : pre_start_) enqueue(std::move(m));
  pre_start_.clear();
  schedule_pass();
}

void Engine::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  worker_->submit([this] {
    stop_requested_ = true;
    schedule_pass();
  });
}

void Engine::join() {
  if (!started_.load(std::memory_order_acquire)) return;
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return done_; });
  }
  // Barrier: every task submitted before this point (posts, weights) has
  // run, so none can touch the engine after the caller destroys it.
  worker_->call([] {});
}

void Engine::teardown() {
  // Graceful teardown (paper §2.2: "all the data structures and threads in
  // both the engine and the algorithm will be cleared up, and the program
  // terminates gracefully"). Runs on the worker, from a pass or a task,
  // never inside a link's own callback, so links are destroyed directly.
  if (torn_down_) return;
  torn_down_ = true;
  acceptor_.stop();
  for (auto& [peer, link] : links_) link->stop();
  links_.clear();
  observer_link_.reset();
  proxy_link_.reset();
  inbox_.clear();
  worker_->cancel_timers(this);
  worker_->cancel_deferred(this);  // destroys the retired links
  running_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(done_mu_);
  done_ = true;
  done_cv_.notify_all();  // under the lock: the waiter may destroy us
}

void Engine::register_app(u32 app, std::shared_ptr<Application> application) {
  const auto apply = [&] { sources_[app].app_impl = std::move(application); };
  if (started_.load(std::memory_order_acquire)) {
    worker_->call(apply);
  } else {
    apply();
  }
}

void Engine::post(MsgPtr m) {
  if (!started_.load(std::memory_order_acquire)) {
    pre_start_.push_back(std::move(m));
    return;
  }
  if (worker_->on_worker_thread()) {
    enqueue(std::move(m));
    return;
  }
  worker_->submit([this, m = std::move(m)]() mutable { enqueue(std::move(m)); });
}

void Engine::enqueue(MsgPtr m) {
  if (torn_down_) return;
  inbox_.push_back(std::move(m));
  schedule_pass();
}

void Engine::deploy_source(u32 app) {
  post(Msg::control(MsgType::kSDeploy, NodeId(), kControlApp,
                    static_cast<i32>(app)));
}

void Engine::terminate_source(u32 app) {
  post(Msg::control(MsgType::kSTerminate, NodeId(), kControlApp,
                    static_cast<i32>(app)));
}

void Engine::join_app(u32 app, std::string_view arg) {
  post(Msg::control(MsgType::kSJoin, NodeId(), kControlApp,
                    static_cast<i32>(app), 0, arg));
}

Engine::Snapshot Engine::snapshot() const {
  Snapshot snap;
  snap.node = self_;
  auto fill = [&] {
    const TimePoint t = clock_->now();
    for (const auto& [peer, link] : links_) {
      LinkSnapshot ls;
      ls.peer = peer;
      ls.up.peer = peer;
      ls.up.rate_bps = link->up_meter().rate(t);
      ls.up.total_bytes = link->up_meter().total_bytes();
      ls.up.total_msgs = link->up_meter().total_msgs();
      ls.up.lost_bytes = link->up_meter().lost_bytes();
      ls.up.lost_msgs = link->up_meter().lost_msgs();
      ls.up.buffer_len = link->recv_buffer().size();
      ls.up.buffer_cap = link->recv_buffer().capacity();
      ls.down.peer = peer;
      ls.down.rate_bps = link->down_meter().rate(t);
      ls.down.total_bytes = link->down_meter().total_bytes();
      ls.down.total_msgs = link->down_meter().total_msgs();
      ls.down.lost_bytes = link->down_meter().lost_bytes();
      ls.down.lost_msgs = link->down_meter().lost_msgs();
      ls.down.buffer_len = link->send_buffer().size();
      ls.down.buffer_cap = link->send_buffer().capacity();
      snap.links.push_back(ls);
    }
    for (const auto& [app, slot] : sources_) {
      if (slot.active) snap.source_apps.push_back(app);
    }
    snap.joined_apps.assign(joined_.begin(), joined_.end());
  };
  if (started_.load(std::memory_order_acquire)) {
    worker_->call(fill);
  } else {
    fill();
  }
  return snap;
}

// --- The switch pass ------------------------------------------------------------

void Engine::schedule_pass() {
  if (pass_scheduled_ || torn_down_) return;
  pass_scheduled_ = true;
  worker_->defer(this, [this] { run_pass(); });
}

void Engine::drain_inbox() {
  while (!inbox_.empty() && !stop_requested_) {
    const MsgPtr m = std::move(inbox_.front());
    inbox_.pop_front();
    dispatch(m);
  }
}

void Engine::run_pass() {
  pass_scheduled_ = false;
  if (torn_down_) return;
  // Same order as the paper's event loop: messages first (control plane,
  // driver posts, failures), then the switch.
  drain_inbox();
  pass_msgs_ = 0;
  pass_bytes_ = 0;
  dialed_in_pass_ = false;
  while (!stop_requested_ && run_switch()) {
    if (pass_msgs_ >= kPassBudget || pass_bytes_ >= kPassBudgetBytes ||
        dialed_in_pass_) {
      // Yield: the other nodes on this worker, and the sends this pass
      // queued (a new link's hello first), run before the next pass
      // picks up where this one stopped.
      schedule_pass();
      break;
    }
  }
  if (stop_requested_) {
    teardown();
    return;
  }
  if (source_starved_ && !repoll_armed_) {
    repoll_armed_ = true;
    worker_->schedule_after(kSourceRepoll, this, [this] {
      repoll_armed_ = false;
      schedule_pass();
    });
  }
}

// --- Links ---------------------------------------------------------------------

void Engine::on_link_message(PeerLink& /*link*/, MsgPtr m) {
  enqueue(std::move(m));
}

void Engine::on_link_ready(PeerLink& /*link*/) { schedule_pass(); }

void Engine::on_link_failed(PeerLink& link, MsgType /*kind*/) {
  // Links fail only inside their own callbacks, never inside a pass, so
  // the failure is handled right here; the link object itself is retired
  // (destroyed after this callback chain).
  if (&link == observer_link_.get()) {
    worker_->retire(this, std::move(observer_link_));
    if (!observer_retry_armed_) {
      observer_retry_armed_ = true;
      worker_->schedule_after(kObserverRetry, this, [this] {
        observer_retry_armed_ = false;
        connect_observer();
      });
    }
    return;
  }
  if (&link == proxy_link_.get()) {
    worker_->retire(this, std::move(proxy_link_));  // reports fall back
    return;
  }
  if (find_link(link.peer()) != &link) return;  // already removed
  drain_inbox();  // what the link delivered before it failed comes first
  handle_link_failure(link.peer(), /*deliberate=*/false);
  schedule_pass();
}

void Engine::on_first_frame(PeerLink& link) {
  // Only the smaller node id keeps its own dial on a crossing; make sure
  // the peer's crossing connection, which reached our listener before
  // this frame left the peer, is accepted and attached first.
  if (self_ < link.peer()) acceptor_.accept_now();
}

// --- Publicized port -------------------------------------------------------------

void Engine::on_hello(const Hello& hello, TcpConn& conn) {
  // Persistent connections become links; control connections stay with
  // the acceptor, which decodes their frames into on_control_frame().
  if (hello.kind == ConnKind::kPersistent) {
    adopt_persistent(hello.sender, std::move(conn));
  }
}

void Engine::on_control_frame(MsgPtr m) { enqueue(std::move(m)); }

void Engine::on_accept_exhausted() { log_fd_exhaustion("accept"); }

void Engine::log_fd_exhaustion(const char* where) {
  const TimePoint t = clock_->now();
  if (t - last_fd_warn_ < seconds(1.0) && last_fd_warn_ != 0) return;
  last_fd_warn_ = t;
  IOV_LOG_WARN("engine") << self_.to_string()
                         << ": out of file descriptors (" << where
                         << "); backing off and retrying (process fd cap "
                         << raise_nofile_limit() << ")";
}

void Engine::adopt_persistent(const NodeId& peer, TcpConn conn) {
  conn.set_buffer_sizes(config_.socket_buffer_bytes);
  PeerLink* existing = find_link(peer);
  // Simultaneous dial: both ends agree that the connection dialed by the
  // numerically smaller node id survives, and nothing sent on the other
  // one is lost. The smaller side reads the peer's dropped dial to EOF
  // (ahead of the surviving link when it can); the larger side's new
  // link takes over its dial's unsent messages, as it does from a link
  // the peer gave up on and dialed again.
  if (existing != nullptr && existing->dialed() && self_ < peer) {
    existing->drain_crossing(std::move(conn));
    return;
  }
  auto link = std::make_unique<PeerLink>(
      self_, peer, std::move(conn), config_, bandwidth_, *clock_, *this,
      metrics_, slab_pool_, *worker_, /*dial_pending=*/false);
  PeerLink* raw = link.get();
  if (existing != nullptr) {
    raw->take_over(*existing);
    remove_link(peer);
  }
  links_[peer] = std::move(link);
  rr_dirty_ = true;
  raw->start();
}

PeerLink* Engine::find_link(const NodeId& peer) const {
  const auto it = links_.find(peer);
  return it == links_.end() ? nullptr : it->second.get();
}

void Engine::remove_link(const NodeId& peer) {
  const auto it = links_.find(peer);
  if (it == links_.end()) return;
  std::unique_ptr<PeerLink> link = std::move(it->second);
  links_.erase(it);
  rr_dirty_ = true;
  link->stop();
  worker_->retire(this, std::move(link));
}

PeerLink* Engine::get_or_dial(const NodeId& dest) {
  if (PeerLink* existing = find_link(dest)) return existing;
  // Non-blocking connect. The link exists immediately (messages queue
  // into its send buffer); the worker completes the TCP handshake + hello
  // asynchronously, and a failed connect surfaces as the usual
  // kBrokenLink teardown.
  auto conn = TcpConn::connect_start(dest, config_.socket_buffer_bytes);
  if (!conn) {
    if (errno == EMFILE || errno == ENFILE) log_fd_exhaustion("dial");
    return nullptr;
  }
  auto link = std::make_unique<PeerLink>(
      self_, dest, std::move(*conn), config_, bandwidth_, *clock_, *this,
      metrics_, slab_pool_, *worker_, /*dial_pending=*/true);
  PeerLink* raw = link.get();
  links_[dest] = std::move(link);
  rr_dirty_ = true;
  dialed_in_pass_ = true;
  raw->start();
  return raw;
}

// --- Dispatch -------------------------------------------------------------------

void Engine::deliver_to_algorithm(const MsgPtr& m) {
  current_msg_ = m.get();
  algorithm_->process(m);
  current_msg_ = nullptr;
}

void Engine::dispatch(const MsgPtr& m) {
  ctrl_msgs_.inc();
  switch (m->type()) {
    case MsgType::kPeerFailed:
    case MsgType::kSendFailed:
      handle_link_failure(m->origin(), /*deliberate=*/false);
      return;

    case MsgType::kTerminateNode:
      stop_requested_ = true;
      return;

    case MsgType::kSetBandwidth:
      apply_set_bandwidth(m);
      return;

    case MsgType::kSeverLink: {
      // Fault injection: drop the link as if it had failed. Our side runs
      // the non-deliberate path (the algorithm sees kBrokenLink); the
      // peer perceives the TCP EOF and does the same.
      const auto peer = NodeId::parse(trim(m->param_text()));
      if (peer) handle_link_failure(*peer, /*deliberate=*/false);
      return;
    }

    case MsgType::kSetLoss: {
      const auto peer = NodeId::parse(trim(m->param_text()));
      if (!peer) return;
      if (PeerLink* link = find_link(*peer)) {
        link->set_send_loss(static_cast<double>(m->param(0)) / 1e6);
      }
      return;
    }

    case MsgType::kRequest:
      send_report();
      deliver_to_algorithm(m);  // Table 2 also shows algorithms reacting
      return;

    case MsgType::kSDeploy: {
      const u32 app = static_cast<u32>(m->param(0));
      const auto it = sources_.find(app);
      if (it == sources_.end() || !it->second.app_impl) {
        IOV_LOG_WARN("engine") << self_.to_string() << ": sDeploy for app "
                               << app << " with no registered application";
        return;
      }
      it->second.active = true;
      deliver_to_algorithm(m);
      return;
    }

    case MsgType::kSTerminate: {
      const auto it = sources_.find(static_cast<u32>(m->param(0)));
      if (it != sources_.end()) it->second.active = false;
      deliver_to_algorithm(m);
      return;
    }

    case MsgType::kSJoin:
      joined_.insert(static_cast<u32>(m->param(0)));
      break;

    case MsgType::kSLeave:
      joined_.erase(static_cast<u32>(m->param(0)));
      break;

    case MsgType::kBrokenSource:
      propagate_broken_source(m->app(), m->origin());
      return;

    default:
      break;
  }
  deliver_to_algorithm(m);
}

void Engine::handle_link_failure(const NodeId& peer, bool deliberate) {
  if (find_link(peer) == nullptr) return;  // already torn down
  (deliberate ? link_closes_ : link_failures_).inc();
  remove_link(peer);

  // Purge queued work involving the dead peer.
  link_outbox_.erase(peer);
  control_backlog_.erase(peer);
  for (auto& [slot_peer, outbox] : link_outbox_) {
    std::erase_if(outbox.entries,
                  [&](const auto& e) { return e.second == peer; });
  }
  for (auto& [app, slot] : sources_) {
    std::erase_if(slot.outbox.entries,
                  [&](const auto& e) { return e.second == peer; });
  }
  switch_weight_.erase(peer);

  const std::set<u32> lost_apps = [&] {
    const auto it = up_apps_.find(peer);
    return it == up_apps_.end() ? std::set<u32>{} : it->second;
  }();
  up_apps_.erase(peer);
  down_apps_.erase(peer);

  if (!deliberate) {
    deliver_to_algorithm(
        Msg::control(MsgType::kBrokenLink, peer, kControlApp));
  }

  // Domino effect (§2.2): sessions whose only upstream vanished are dead
  // from this node's perspective; propagate downstream.
  for (const u32 app : lost_apps) {
    if (is_source(app)) continue;
    bool other_upstream = false;
    for (const auto& [other, apps] : up_apps_) {
      if (apps.count(app) > 0) {
        other_upstream = true;
        break;
      }
    }
    if (!other_upstream) propagate_broken_source(app, peer);
  }
}

void Engine::propagate_broken_source(u32 app, const NodeId& origin) {
  if (!broken_seen_.insert({app, origin}).second) return;
  auto notice = std::make_shared<Msg>(MsgType::kBrokenSource, origin, app, 0,
                                      Buffer::empty_buffer());
  std::vector<NodeId> targets;
  for (const auto& [peer, apps] : down_apps_) {
    if (apps.count(app) > 0) targets.push_back(peer);
  }
  for (const auto& target : targets) {
    if (PeerLink* link = find_link(target)) {
      if (link->send_buffer().try_push(notice)) {
        link->notify_send();
      } else {
        control_backlog_[target].push_back(notice);
      }
    }
  }
  deliver_to_algorithm(notice);
}

void Engine::apply_set_bandwidth(const MsgPtr& m) {
  const double rate = static_cast<double>(m->param(1));
  switch (m->param(0)) {
    case kBwNodeTotal:
      bandwidth_.set_node_total(rate);
      return;
    case kBwNodeUp:
      bandwidth_.set_node_up(rate);
      return;
    case kBwNodeDown:
      bandwidth_.set_node_down(rate);
      return;
    case kBwLinkUp:
    case kBwLinkDown: {
      const auto peer = NodeId::parse(trim(m->param_text()));
      if (!peer) return;
      if (m->param(0) == kBwLinkUp) {
        bandwidth_.set_link_up(*peer, rate);
      } else {
        bandwidth_.set_link_down(*peer, rate);
      }
      return;
    }
    default:
      return;
  }
}

// --- Timers and periodic work ----------------------------------------------------

void Engine::set_timer(Duration delay, i32 timer_id) {
  worker_->schedule_after(
      delay, this,
      [this, timer_id] {
        timers_fired_.inc();
        deliver_to_algorithm(
            Msg::control(MsgType::kTimer, self_, kControlApp, timer_id));
        // Sends that found a full buffer wait for the switch.
        if (!control_backlog_.empty()) schedule_pass();
      },
      &loop_lag_);
}

Duration Engine::until_next_tick(Duration period) const {
  // Periodic work is phase-aligned to the clock, so every node on a
  // worker ticks in the same wakeup: an idle process wakes each worker
  // once per period, not once per node per period.
  if (period <= 0) return 0;
  return period - clock_->now() % period;
}

void Engine::on_throughput_tick() {
  worker_->schedule_after(
      until_next_tick(config_.throughput_interval), this,
      [this] { on_throughput_tick(); }, &loop_lag_);
  const TimePoint t = clock_->now();
  std::vector<std::pair<NodeId, std::pair<double, double>>> rates;
  rates.reserve(links_.size());
  for (const auto& [peer, link] : links_) {
    rates.push_back(
        {peer, {link->up_meter().rate(t), link->down_meter().rate(t)}});
  }

  // Resource-budget gauge (docs/METRICS.md): the listener, one per link,
  // plus observer/proxy and transient control connections.
  std::size_t fds = 1 + rates.size() + acceptor_.pending();
  if (observer_link_) ++fds;
  if (proxy_link_) ++fds;
  engine_open_fds_.set(static_cast<i64>(fds));
  for (const auto& [peer, updown] : rates) {
    deliver_to_algorithm(Msg::control(MsgType::kUpThroughput, peer,
                                      kControlApp,
                                      static_cast<i32>(updown.first)));
    deliver_to_algorithm(Msg::control(MsgType::kDownThroughput, peer,
                                      kControlApp,
                                      static_cast<i32>(updown.second)));
  }

  // Inactivity-based failure detection (§2.2): an upstream that has
  // delivered traffic before but has been silent beyond the timeout is
  // presumed dead. No probes, no heartbeats.
  if (config_.idle_failure_timeout > 0) {
    std::vector<NodeId> idle;
    for (const auto& [peer, link] : links_) {
      if (link->up_meter().total_msgs() > 0 &&
          link->up_meter().idle_for(t) > config_.idle_failure_timeout) {
        idle.push_back(peer);
      }
    }
    for (const auto& peer : idle) {
      handle_link_failure(peer, /*deliberate=*/false);
    }
    // A slot whose outbox waited only on a failed peer takes input again.
    if (!idle.empty()) schedule_pass();
  }
  if (!control_backlog_.empty()) schedule_pass();
}

void Engine::on_report_tick() {
  worker_->schedule_after(
      until_next_tick(config_.report_interval), this,
      [this] { on_report_tick(); }, &loop_lag_);
  if (observer_link_) send_report();
}

// --- Observer plane -----------------------------------------------------------------

void Engine::connect_observer() {
  if (!config_.observer.valid() || observer_link_ || torn_down_) return;
  // Both connections are PeerLinks that send a control hello: the same
  // bytes as a blocking hello-then-frames write, queued behind a
  // non-blocking connect, so a slow observer never blocks the worker.
  observer_link_ = dial_control(config_.observer);
  if (!observer_link_) {
    if (!observer_retry_armed_) {
      observer_retry_armed_ = true;
      worker_->schedule_after(kObserverRetry, this, [this] {
        observer_retry_armed_ = false;
        connect_observer();
      });
    }
    return;
  }
  send_control(observer_link_.get(),
               Msg::control(MsgType::kBoot, self_, kControlApp));
  if (config_.report_proxy.valid() && !proxy_link_) {
    proxy_link_ = dial_control(config_.report_proxy);
  }
}

std::unique_ptr<PeerLink> Engine::dial_control(const NodeId& dest) {
  auto conn = TcpConn::connect_start(dest);
  if (!conn) return nullptr;
  auto link = std::make_unique<PeerLink>(
      self_, dest, std::move(*conn), config_, bandwidth_, *clock_, *this,
      control_metrics_, slab_pool_, *worker_, /*dial_pending=*/true,
      ConnKind::kControl);
  link->start();
  return link;
}

bool Engine::send_control(PeerLink* link, const MsgPtr& m) {
  return link != nullptr && link->try_send(m);
}

NodeReport Engine::build_report() const {
  NodeReport r;
  r.node = self_;
  r.uptime = clock_->now() - start_time_;
  const TimePoint t = clock_->now();
  for (const auto& [peer, apps] : up_apps_) {
    const auto it = links_.find(peer);
    if (it == links_.end()) continue;
    const auto& link = *it->second;
    r.upstreams.push_back(LinkReport{peer, link.up_meter().rate(t),
                                     link.up_meter().total_bytes(),
                                     link.up_meter().lost_msgs(),
                                     link.recv_buffer().size(),
                                     link.recv_buffer().capacity()});
  }
  for (const auto& [peer, apps] : down_apps_) {
    const auto it = links_.find(peer);
    if (it == links_.end()) continue;
    const auto& link = *it->second;
    r.downstreams.push_back(LinkReport{peer, link.down_meter().rate(t),
                                       link.down_meter().total_bytes(),
                                       link.down_meter().lost_msgs(),
                                       link.send_buffer().size(),
                                       link.send_buffer().capacity()});
  }
  for (const auto& [app, slot] : sources_) {
    if (slot.active) r.source_apps.push_back(app);
  }
  r.joined_apps.assign(joined_.begin(), joined_.end());
  r.algorithm_status = algorithm_->status();
  r.version = NodeReport::kVersion;
  r.metrics_wire = metrics_.snapshot().serialize();
  return r;
}

void Engine::send_report() {
  if (!observer_link_ && !proxy_link_) return;
  reports_sent_.inc();
  const auto report = Msg::text_msg(MsgType::kReport, self_, kControlApp,
                                    build_report().serialize());
  // Prefer the proxy; a backlogged one falls back to the direct link.
  if (!send_control(proxy_link_.get(), report)) {
    send_control(observer_link_.get(), report);
  }
}

void Engine::trace(std::string_view text) {
  traces_sent_.inc();
  if (!config_.local_trace_path.empty()) {
    // High-volume mode: log locally, collect later (§2.2).
    std::ofstream out(config_.local_trace_path, std::ios::app);
    if (out) {
      out << strf("[%12.6f] %s ", to_seconds(clock_->now()),
                  self_.to_string().c_str())
          << text << '\n';
      return;
    }
  }
  const auto m = Msg::text_msg(MsgType::kTrace, self_, kControlApp, text);
  if (send_control(proxy_link_.get(), m)) return;
  if (send_control(observer_link_.get(), m)) return;
  IOV_LOG_INFO("trace") << self_.to_string() << ": " << text;
}

// --- The switch -------------------------------------------------------------------

bool Engine::run_switch() {
  flush_control_backlogs();
  source_starved_ = false;

  if (rr_dirty_) {
    rr_order_.clear();
    rr_order_.reserve(links_.size());
    for (const auto& [peer, link] : links_) rr_order_.push_back(peer);
    std::sort(rr_order_.begin(), rr_order_.end());
    rr_dirty_ = false;
  }

  bool progress = false;
  const std::size_t n = rr_order_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId peer = rr_order_[(rr_offset_ + i) % n];
    progress |= pump_link_slot(peer);
  }
  if (n > 0) rr_offset_ = (rr_offset_ + 1) % n;

  for (auto& [app, slot] : sources_) {
    progress |= pump_source_slot(app, slot);
  }
  if (progress) switch_rounds_.inc();
  return progress;
}

bool Engine::pump_link_slot(const NodeId& peer) {
  PeerLink* link = find_link(peer);
  if (link == nullptr) return false;
  Outbox& outbox = link_outbox_[peer];
  bool progress = flush_outbox(outbox);
  if (!outbox.empty()) return progress;

  int weight = config_.default_switch_weight;
  const auto weight_it = switch_weight_.find(peer);
  if (weight_it != switch_weight_.end()) weight = weight_it->second;
  // One batch pop per slot visit: up to `weight` messages leave the
  // receive buffer, and every popped message is processed this round.
  switch_batch_.clear();
  const std::size_t popped = link->recv_buffer().try_pop_batch(
      switch_batch_, weight > 0 ? static_cast<std::size_t>(weight) : 0);
  // A reader parked on this (previously full) buffer resumes after the
  // pass.
  if (popped > 0) link->notify_recv_space();
  // Chained stamps: one clock read per batch, then one per message after
  // its outbox flush; message k's end stamp is message k+1's start.
  TimePoint t0 = popped > 0 ? clock_->now() : 0;
  for (std::size_t w = 0; w < popped; ++w) {
    Inbound& in = switch_batch_[w];
    // Switch latency (paper Fig. 5): link enqueue to the switch taking
    // the message up, covering the time it sat in the receive buffer.
    switch_latency_.observe(to_seconds(t0 - in.enqueued_at));
    // Data-plane only: a peer is an "upstream" for an app when it feeds
    // us that app's data, not when it merely relays control for it.
    if (in.msg->type() == MsgType::kData) up_apps_[peer].insert(in.msg->app());
    current_outbox_ = &outbox;
    deliver_to_algorithm(in.msg);
    current_outbox_ = nullptr;
    switch_msgs_.inc();
    ++pass_msgs_;
    pass_bytes_ += in.msg->wire_size();
    progress = true;
    flush_outbox(outbox);
    const TimePoint t1 = clock_->now();
    switch_process_.observe(to_seconds(t1 - t0));
    t0 = t1;
  }
  switch_batch_.clear();
  link->update_queue_gauges();
  return progress;
}

bool Engine::pump_source_slot(u32 app, SourceSlot& slot) {
  bool progress = flush_outbox(slot.outbox);
  if (!slot.outbox.empty() || !slot.active || !slot.app_impl) return progress;

  for (int w = 0; w < config_.default_switch_weight; ++w) {
    MsgPtr m = slot.app_impl->next_message(app, self_, clock_->now());
    if (!m) {
      source_starved_ = true;  // ask again soon (run_pass arms the timer)
      break;
    }
    ++pass_msgs_;
    pass_bytes_ += m->wire_size();
    m->set_seq(slot.next_seq++);
    current_outbox_ = &slot.outbox;
    deliver_to_algorithm(m);
    current_outbox_ = nullptr;
    progress = true;
    flush_outbox(slot.outbox);
    if (!slot.outbox.empty()) break;
  }
  return progress;
}

bool Engine::flush_outbox(Outbox& outbox) {
  if (outbox.empty()) return false;
  bool progress = false;
  std::set<NodeId> stuck;  // preserve per-destination ordering
  auto& entries = outbox.entries;
  for (auto it = entries.begin(); it != entries.end();) {
    const NodeId dest = it->second;
    if (stuck.count(dest) > 0) {
      ++it;
      continue;
    }
    PeerLink* link = get_or_dial(dest);
    if (link == nullptr) {
      // Destination unreachable: drop and notify the algorithm via the
      // usual message path (send() itself never fails, §2.3).
      enqueue(Msg::control(MsgType::kBrokenLink, dest, kControlApp));
      it = entries.erase(it);
      progress = true;
      continue;
    }
    if (link->try_send(it->first)) {
      down_apps_[dest].insert(it->first->app());
      it = entries.erase(it);
      progress = true;
    } else {
      stuck.insert(dest);
      ++it;
    }
  }
  return progress;
}

void Engine::flush_control_backlogs() {
  for (auto it = control_backlog_.begin(); it != control_backlog_.end();) {
    auto& queue = it->second;
    PeerLink* link = find_link(it->first);
    if (link == nullptr) {
      it = control_backlog_.erase(it);
      continue;
    }
    bool pushed = false;
    while (!queue.empty() && link->send_buffer().try_push(queue.front())) {
      queue.pop_front();
      pushed = true;
    }
    if (pushed) link->notify_send();
    it = queue.empty() ? control_backlog_.erase(it) : std::next(it);
  }
}

// --- EngineApi --------------------------------------------------------------------

void Engine::send(const MsgPtr& m, const NodeId& dest) {
  if (!m || !dest.valid()) return;
  if (dest == self_) {
    enqueue(m);
    return;
  }
  // §2.3: a received non-data message must be cloned before re-sending.
  assert(!(current_msg_ == m.get() && m->type() != MsgType::kData) &&
         "clone() required before re-sending a non-data message");

  if (m->type() == MsgType::kData && current_outbox_ != nullptr) {
    current_outbox_->entries.push_back({m, dest});
    return;
  }

  PeerLink* link = get_or_dial(dest);
  if (link == nullptr) {
    enqueue(Msg::control(MsgType::kBrokenLink, dest, kControlApp));
    return;
  }
  if (link->try_send(m)) {
    // Only data messages define the per-app up/downstream topology the
    // Domino walks (see SimEngine::send for the full rationale).
    if (m->type() == MsgType::kData) down_apps_[dest].insert(m->app());
  } else {
    control_backlog_[dest].push_back(m);
  }
}

std::vector<NodeId> Engine::upstreams() const {
  std::vector<NodeId> out;
  out.reserve(up_apps_.size());
  for (const auto& [peer, apps] : up_apps_) out.push_back(peer);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Engine::downstreams() const {
  std::vector<NodeId> out;
  out.reserve(down_apps_.size());
  for (const auto& [peer, apps] : down_apps_) out.push_back(peer);
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<LinkStats> Engine::upstream_stats(const NodeId& peer) const {
  PeerLink* link = find_link(peer);
  if (link == nullptr) return std::nullopt;
  LinkStats s;
  s.peer = peer;
  s.rate_bps = link->up_meter().rate(clock_->now());
  s.total_bytes = link->up_meter().total_bytes();
  s.total_msgs = link->up_meter().total_msgs();
  s.lost_bytes = link->up_meter().lost_bytes();
  s.lost_msgs = link->up_meter().lost_msgs();
  s.buffer_len = link->recv_buffer().size();
  s.buffer_cap = link->recv_buffer().capacity();
  return s;
}

std::optional<LinkStats> Engine::downstream_stats(const NodeId& peer) const {
  PeerLink* link = find_link(peer);
  if (link == nullptr) return std::nullopt;
  LinkStats s;
  s.peer = peer;
  s.rate_bps = link->down_meter().rate(clock_->now());
  s.total_bytes = link->down_meter().total_bytes();
  s.total_msgs = link->down_meter().total_msgs();
  s.lost_bytes = link->down_meter().lost_bytes();
  s.lost_msgs = link->down_meter().lost_msgs();
  s.buffer_len = link->send_buffer().size();
  s.buffer_cap = link->send_buffer().capacity();
  return s;
}

void Engine::deliver_local(const MsgPtr& m) {
  const auto it = sources_.find(m->app());
  if (it != sources_.end() && it->second.app_impl) {
    it->second.app_impl->deliver(m, clock_->now());
  }
}

bool Engine::is_source(u32 app) const {
  const auto it = sources_.find(app);
  return it != sources_.end() && it->second.active;
}

void Engine::set_switch_weight(const NodeId& peer, int weight) {
  const auto apply = [&] { switch_weight_[peer] = std::max(weight, 1); };
  if (started_.load(std::memory_order_acquire)) {
    worker_->call(apply);
  } else {
    apply();
  }
}

void Engine::close_link(const NodeId& peer) {
  handle_link_failure(peer, /*deliberate=*/true);
}

void Engine::shutdown() {
  stop_requested_ = true;
  schedule_pass();
}

}  // namespace iov::engine
