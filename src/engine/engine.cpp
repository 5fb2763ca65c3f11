#include "engine/engine.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <fstream>

#include "common/logging.h"
#include "common/strings.h"
#include "net/reactor/reactor.h"
#include "obs/metric_names.h"

namespace iov::engine {

namespace {
constexpr Duration kIdlePollTimeout = millis(50);
constexpr Duration kHelloTimeout = seconds(1.0);
constexpr Duration kObserverRetry = seconds(1.0);
/// How long the listener sits out of the poll set after EMFILE/ENFILE on
/// accept — long enough for fds to free up, short enough that peers'
/// connect attempts (still queued in the kernel backlog) aren't dropped.
constexpr Duration kAcceptBackoff = millis(100);
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
      reactor_(reactor::Reactor::shared()) {
  // The engine thread is the only OS thread a node owns; its links run on
  // the process-shared reactor pool.
  metrics_.gauge(obs::names::kEngineThreads).set(1);
  // Register the reactor lag histogram up front so every node's kReport
  // carries the metric even before its first link exists.
  metrics_.histogram(obs::names::kReactorLoopLagSeconds);
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
    IOV_LOG_INFO("engine") << "socket path: shared epoll reactor, "
                           << reactor_.threads() << " worker(s); fd cap "
                           << fd_cap;
  });
  auto listener = TcpListener::listen(config_.port, config_.loopback_only,
                                      128, config_.socket_buffer_bytes);
  if (!listener) return false;
  listener_ = std::move(*listener);
  self_ = NodeId(config_.advertised_ip, listener_.port());

  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) return false;

  started_ = true;
  running_.store(true, std::memory_order_release);
  engine_thread_ = std::thread([this] { engine_main(); });
  return true;
}

void Engine::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

void Engine::join() {
  if (engine_thread_.joinable()) engine_thread_.join();
}

void Engine::register_app(u32 app, std::shared_ptr<Application> application) {
  std::lock_guard<std::mutex> lock(state_mu_);
  sources_[app].app_impl = std::move(application);
}

void Engine::post(MsgPtr m) {
  {
    std::lock_guard<std::mutex> lock(internal_mu_);
    internal_q_.push_back(std::move(m));
  }
  wake();
}

void Engine::wake() {
  if (!wake_fd_.valid()) return;
  const u64 one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
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
  const TimePoint t = clock_->now();
  std::lock_guard<std::mutex> lock(state_mu_);
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
  return snap;
}

// --- Engine thread ------------------------------------------------------------

void Engine::engine_main() {
  algorithm_->bind(*this);
  start_time_ = clock_->now();
  next_report_ = start_time_ + config_.report_interval;
  next_throughput_ = start_time_ + config_.throughput_interval;
  connect_observer();
  algorithm_->on_start();

  bool progress = false;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    Duration timeout = 0;
    if (!progress) {
      const TimePoint t = clock_->now();
      timeout = kIdlePollTimeout;
      if (!timers_.empty()) {
        timeout = std::min(timeout, timers_.top().due - t);
      }
      timeout = std::min(timeout, next_throughput_ - t);
      if (observer_conn_) timeout = std::min(timeout, next_report_ - t);
      timeout = std::max<Duration>(timeout, 0);
    }
    poll_once(timeout);

    // Drain the internal queue (link-thread notifications, driver posts,
    // protocol messages that arrived over persistent links).
    while (true) {
      MsgPtr m;
      {
        std::lock_guard<std::mutex> lock(internal_mu_);
        if (internal_q_.empty()) break;
        m = std::move(internal_q_.front());
        internal_q_.pop_front();
      }
      dispatch(m);
      if (stop_requested_.load(std::memory_order_acquire)) break;
    }

    fire_due_timers();
    run_periodic();
    progress = run_switch();
  }

  // Graceful teardown (paper §2.2: "all the data structures and threads in
  // both the engine and the algorithm will be cleared up, and the program
  // terminates gracefully").
  listener_.close();
  std::unordered_map<NodeId, std::unique_ptr<PeerLink>> links;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    links.swap(links_);
  }
  for (auto& [peer, link] : links) link->stop();
  for (auto& [peer, link] : links) link->join();
  links.clear();
  control_conns_.clear();
  if (observer_conn_) observer_conn_->close();
  running_.store(false, std::memory_order_release);
}

void Engine::poll_once(Duration timeout) {
  std::vector<pollfd> fds;
  fds.push_back({wake_fd_.get(), POLLIN, 0});
  // During fd-exhaustion backoff the listener sits out of the poll set
  // (a negative fd is ignored by poll); pending connects stay queued in
  // the kernel backlog instead of spinning accept -> EMFILE.
  const bool accepting = clock_->now() >= accept_backoff_until_;
  fds.push_back({accepting ? listener_.fd() : -1, POLLIN, 0});
  const std::size_t observer_idx = fds.size();
  if (observer_conn_) fds.push_back({observer_conn_->fd(), POLLIN, 0});
  const std::size_t control_base = fds.size();
  for (const auto& conn : control_conns_) {
    fds.push_back({conn.fd(), POLLIN, 0});
  }

  const int timeout_ms = static_cast<int>(timeout / kNanosPerMilli);
  const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc <= 0) return;

  if (fds[0].revents & POLLIN) {
    u64 count = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(wake_fd_.get(), &count, sizeof(count));
  }
  if (fds[1].revents & (POLLIN | POLLERR)) handle_accept();

  if (observer_conn_ && (fds[observer_idx].revents & (POLLIN | POLLHUP))) {
    if (MsgPtr m = read_msg(*observer_conn_)) {
      dispatch(m);
    } else {
      observer_conn_.reset();
      next_observer_retry_ = clock_->now() + kObserverRetry;
    }
  }

  // Transient control connections: one frame per readiness; EOF removes.
  std::vector<std::size_t> dead;
  for (std::size_t i = 0; i < control_conns_.size(); ++i) {
    if (!(fds[control_base + i].revents & (POLLIN | POLLHUP))) continue;
    if (MsgPtr m = read_msg(control_conns_[i])) {
      dispatch(m);
    } else {
      dead.push_back(i);
    }
  }
  for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
    control_conns_.erase(control_conns_.begin() +
                         static_cast<std::ptrdiff_t>(*it));
  }
}

void Engine::handle_accept() {
  while (true) {
    errno = 0;
    auto conn = listener_.accept();
    if (!conn) {
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: not fatal. Back off, let links close and
        // free fds, and retry; the node itself stays up.
        accept_backoff_until_ = clock_->now() + kAcceptBackoff;
        log_fd_exhaustion("accept");
      }
      return;
    }
    if (!wait_readable(conn->fd(), kHelloTimeout)) continue;  // drop
    const auto hello = read_hello(*conn);
    if (!hello) continue;  // bad magic: drop
    if (hello->kind == ConnKind::kPersistent) {
      adopt_persistent(hello->sender, std::move(*conn));
    } else {
      control_conns_.push_back(std::move(*conn));
    }
  }
}

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
  if (find_link(peer) != nullptr) {
    // Simultaneous dial: both ends agree that the connection dialed by the
    // numerically smaller node id survives.
    if (self_ < peer) return;  // keep ours; drop the incoming socket
    remove_link(peer);
  }
  auto link = std::make_unique<PeerLink>(
      self_, peer, std::move(conn), config_, bandwidth_, *clock_, *this,
      metrics_, slab_pool_, reactor_.pick(), /*dial_pending=*/false);
  PeerLink* raw = link.get();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    links_[peer] = std::move(link);
  }
  rr_dirty_ = true;
  raw->start();
}

PeerLink* Engine::find_link(const NodeId& peer) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  const auto it = links_.find(peer);
  return it == links_.end() ? nullptr : it->second.get();
}

void Engine::remove_link(const NodeId& peer) {
  std::unique_ptr<PeerLink> link;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = links_.find(peer);
    if (it == links_.end()) return;
    link = std::move(it->second);
    links_.erase(it);
  }
  rr_dirty_ = true;
  link->stop();
  link->join();
}

PeerLink* Engine::get_or_dial(const NodeId& dest) {
  if (PeerLink* existing = find_link(dest)) return existing;
  // Non-blocking connect. The link exists immediately (messages queue
  // into its send buffer); the worker completes the TCP handshake + hello
  // asynchronously, and a failed connect surfaces as kPeerFailed -> the
  // usual kBrokenLink teardown.
  auto conn = TcpConn::connect_start(dest, config_.socket_buffer_bytes);
  if (!conn) {
    if (errno == EMFILE || errno == ENFILE) log_fd_exhaustion("dial");
    return nullptr;
  }
  auto link = std::make_unique<PeerLink>(
      self_, dest, std::move(*conn), config_, bandwidth_, *clock_, *this,
      metrics_, slab_pool_, reactor_.pick(), /*dial_pending=*/true);
  PeerLink* raw = link.get();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    links_[dest] = std::move(link);
  }
  rr_dirty_ = true;
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
      stop_requested_.store(true, std::memory_order_release);
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
      bool known = false;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        const auto it = sources_.find(app);
        if (it != sources_.end() && it->second.app_impl) {
          it->second.active = true;
          known = true;
        }
      }
      if (!known) {
        IOV_LOG_WARN("engine") << self_.to_string() << ": sDeploy for app "
                               << app << " with no registered application";
        return;
      }
      deliver_to_algorithm(m);
      return;
    }

    case MsgType::kSTerminate: {
      const u32 app = static_cast<u32>(m->param(0));
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        const auto it = sources_.find(app);
        if (it != sources_.end()) it->second.active = false;
      }
      deliver_to_algorithm(m);
      return;
    }

    case MsgType::kSJoin: {
      std::lock_guard<std::mutex> lock(state_mu_);
      joined_.insert(static_cast<u32>(m->param(0)));
      break;
    }

    case MsgType::kSLeave: {
      std::lock_guard<std::mutex> lock(state_mu_);
      joined_.erase(static_cast<u32>(m->param(0)));
      break;
    }

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
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    switch_weight_.erase(peer);
  }

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
  timers_.push(TimerEntry{clock_->now() + std::max<Duration>(delay, 0),
                          timer_id, timer_seq_++});
}

void Engine::fire_due_timers() {
  const TimePoint t = clock_->now();
  while (!timers_.empty() && timers_.top().due <= t) {
    const TimerEntry entry = timers_.top();
    timers_.pop();
    timers_fired_.inc();
    deliver_to_algorithm(
        Msg::control(MsgType::kTimer, self_, kControlApp, entry.id));
  }
}

void Engine::run_periodic() {
  const TimePoint t = clock_->now();

  if (t >= next_throughput_) {
    next_throughput_ = t + config_.throughput_interval;
    std::vector<std::pair<NodeId, std::pair<double, double>>> rates;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      rates.reserve(links_.size());
      for (const auto& [peer, link] : links_) {
        rates.push_back({peer,
                         {link->up_meter().rate(t), link->down_meter().rate(t)}});
      }
    }

    // Resource-budget gauge (docs/METRICS.md): the listener, the wake
    // eventfd, one per link, plus observer/proxy/control connections.
    std::size_t fds = 2 + rates.size() + control_conns_.size();
    if (observer_conn_) ++fds;
    if (proxy_conn_) ++fds;
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
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        for (const auto& [peer, link] : links_) {
          if (link->up_meter().total_msgs() > 0 &&
              link->up_meter().idle_for(t) > config_.idle_failure_timeout) {
            idle.push_back(peer);
          }
        }
      }
      for (const auto& peer : idle) {
        handle_link_failure(peer, /*deliberate=*/false);
      }
    }
  }

  if (observer_conn_ && t >= next_report_) {
    next_report_ = t + config_.report_interval;
    send_report();
  }

  if (!observer_conn_ && config_.observer.valid() &&
      t >= next_observer_retry_) {
    connect_observer();
  }
}

// --- Observer plane -----------------------------------------------------------------

void Engine::connect_observer() {
  if (!config_.observer.valid()) return;
  next_observer_retry_ = clock_->now() + kObserverRetry;
  auto conn = TcpConn::connect(config_.observer, config_.connect_timeout);
  if (!conn) return;
  if (!write_hello(*conn, Hello{ConnKind::kControl, self_})) return;
  if (!write_msg(*conn, *Msg::control(MsgType::kBoot, self_, kControlApp))) {
    return;
  }
  observer_conn_ = std::move(*conn);

  if (config_.report_proxy.valid() && !proxy_conn_) {
    auto proxy = TcpConn::connect(config_.report_proxy,
                                  config_.connect_timeout);
    if (proxy && write_hello(*proxy, Hello{ConnKind::kControl, self_})) {
      proxy_conn_ = std::move(*proxy);
    }
  }
}

NodeReport Engine::build_report() const {
  NodeReport r;
  r.node = self_;
  r.uptime = clock_->now() - start_time_;
  const TimePoint t = clock_->now();
  std::lock_guard<std::mutex> lock(state_mu_);
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
  if (!observer_conn_ && !proxy_conn_) return;
  reports_sent_.inc();
  const auto report = Msg::text_msg(MsgType::kReport, self_, kControlApp,
                                    build_report().serialize());
  if (proxy_conn_) {
    if (write_msg(*proxy_conn_, *report)) return;
    proxy_conn_.reset();  // fall back to the direct connection
  }
  if (observer_conn_ && !write_msg(*observer_conn_, *report)) {
    observer_conn_.reset();
    next_observer_retry_ = clock_->now() + kObserverRetry;
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
  if (proxy_conn_) {
    if (write_msg(*proxy_conn_, *m)) return;
    proxy_conn_.reset();
  }
  if (observer_conn_) {
    if (write_msg(*observer_conn_, *m)) return;
    observer_conn_.reset();
  }
  IOV_LOG_INFO("trace") << self_.to_string() << ": " << text;
}

// --- The switch -------------------------------------------------------------------

bool Engine::run_switch() {
  flush_control_backlogs();

  if (rr_dirty_) {
    rr_order_.clear();
    std::lock_guard<std::mutex> lock(state_mu_);
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
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto weight_it = switch_weight_.find(peer);
    if (weight_it != switch_weight_.end()) weight = weight_it->second;
  }
  // One batch pop per slot visit: up to `weight` messages leave the
  // receive buffer under a single lock, and every popped message is
  // processed this round (WRR order is unchanged; the default weight of
  // 1 makes this identical to the per-message pop).
  switch_batch_.clear();
  const std::size_t popped = link->recv_buffer().try_pop_batch(
      switch_batch_, weight > 0 ? static_cast<std::size_t>(weight) : 0);
  // A reader parked on this (previously full) buffer can resume now —
  // kick it before processing so decode overlaps the switch.
  if (popped > 0) link->notify_recv_space();
  for (std::size_t w = 0; w < popped; ++w) {
    Inbound& in = switch_batch_[w];
    // Switch latency (paper Fig. 5): link enqueue to switch dequeue,
    // covering the time the message sat in the receive buffer.
    const TimePoint t0 = clock_->now();
    switch_latency_.observe(to_seconds(t0 - in.enqueued_at));
    // Data-plane only: a peer is an "upstream" for an app when it feeds
    // us that app's data, not when it merely relays control for it.
    if (in.msg->type() == MsgType::kData) up_apps_[peer].insert(in.msg->app());
    current_outbox_ = &outbox;
    deliver_to_algorithm(in.msg);
    current_outbox_ = nullptr;
    switch_process_.observe(to_seconds(clock_->now() - t0));
    switch_msgs_.inc();
    progress = true;
    flush_outbox(outbox);
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
    if (!m) break;
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
      post(Msg::control(MsgType::kBrokenLink, dest, kControlApp));
      it = entries.erase(it);
      progress = true;
      continue;
    }
    if (link->send_buffer().try_push(it->first)) {
      link->notify_send();
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
    post(m);
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
    post(Msg::control(MsgType::kBrokenLink, dest, kControlApp));
    return;
  }
  if (link->send_buffer().try_push(m)) {
    link->notify_send();
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
  std::shared_ptr<Application> app_impl;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = sources_.find(m->app());
    if (it != sources_.end()) app_impl = it->second.app_impl;
  }
  if (app_impl) app_impl->deliver(m, clock_->now());
}

bool Engine::is_source(u32 app) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  const auto it = sources_.find(app);
  return it != sources_.end() && it->second.active;
}

void Engine::set_switch_weight(const NodeId& peer, int weight) {
  std::lock_guard<std::mutex> lock(state_mu_);
  switch_weight_[peer] = std::max(weight, 1);
}

void Engine::close_link(const NodeId& peer) {
  handle_link_failure(peer, /*deliberate=*/true);
}

void Engine::shutdown() {
  stop_requested_.store(true, std::memory_order_release);
}

}  // namespace iov::engine
