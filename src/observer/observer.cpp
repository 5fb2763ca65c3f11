#include "observer/observer.h"

#include <poll.h>

#include <cstdio>
#include <fstream>

#include "common/clock.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metric_names.h"

namespace iov::observer {

namespace {
constexpr Duration kPollTimeout = millis(50);
constexpr Duration kHelloTimeout = seconds(1.0);
}  // namespace

Observer::Observer(ObserverConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      boots_seen_(metrics_.counter(obs::names::kObserverBootsTotal)),
      reports_seen_(metrics_.counter(obs::names::kObserverReportsTotal)),
      malformed_reports_(
          metrics_.counter(obs::names::kObserverMalformedReportsTotal)),
      traces_seen_(metrics_.counter(obs::names::kObserverTracesTotal)),
      report_rtt_(
          metrics_.histogram(obs::names::kObserverReportRttSeconds)) {}

Observer::~Observer() {
  stop();
  join();
}

bool Observer::start() {
  suppress_sigpipe();
  auto listener = TcpListener::listen(config_.port, config_.loopback_only);
  if (!listener) return false;
  listener_ = std::move(*listener);
  self_ = NodeId::loopback(listener_.port());
  thread_ = std::thread([this] { observer_main(); });
  return true;
}

void Observer::stop() { stop_requested_.store(true, std::memory_order_release); }

void Observer::join() {
  if (thread_.joinable()) thread_.join();
}

void Observer::observer_main() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<Conn*> polled;
    fds.push_back({listener_.fd(), POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& c : conns_) {
        fds.push_back({c->conn.fd(), POLLIN, 0});
        polled.push_back(c.get());
      }
    }

    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(kPollTimeout / kNanosPerMilli));
    if (rc <= 0) continue;

    // Process existing connections before accepting new ones: a
    // reconnect in handle_accept() erases the stale Conn the `polled`
    // snapshot still points at.
    std::vector<NodeId> dead;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (!(fds[i + 1].revents & (POLLIN | POLLHUP))) continue;
      if (MsgPtr m = read_msg(polled[i]->conn)) {
        handle_msg(*polled[i], m);
      } else {
        dead.push_back(polled[i]->node);
      }
    }
    for (const auto& node : dead) mark_dead(node);

    if (fds[0].revents & POLLIN) handle_accept();
  }
  listener_.close();
  std::lock_guard<std::mutex> lock(mu_);
  conns_.clear();
}

void Observer::handle_accept() {
  while (auto conn = listener_.accept()) {
    conn->set_nonblocking(false);  // this daemon reads with blocking calls
    if (!wait_readable(conn->fd(), kHelloTimeout)) continue;
    const auto hello = read_hello(*conn);
    if (!hello || hello->kind != ConnKind::kControl) continue;
    auto entry = std::make_unique<Conn>();
    entry->node = hello->sender;
    entry->conn = std::move(*conn);
    std::lock_guard<std::mutex> lock(mu_);
    // A reconnecting node replaces its stale connection.
    std::erase_if(conns_,
                  [&](const auto& c) { return c->node == hello->sender; });
    conns_.push_back(std::move(entry));
  }
}

void Observer::handle_msg(Conn& c, const MsgPtr& m) {
  const TimePoint t = RealClock::instance().now();
  switch (m->type()) {
    case MsgType::kBoot: {
      boots_seen_.inc();
      std::string subset;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto& info = nodes_[m->origin()];
        info.id = m->origin();
        info.alive = true;
        info.booted_at = t;
        info.last_seen = t;

        // "responding to any bootstrap requests with a random subset of
        // existing nodes that are alive" (§2.2).
        std::vector<NodeId> alive;
        for (const auto& [id, n] : nodes_) {
          if (n.alive && id != m->origin()) alive.push_back(id);
        }
        for (const auto& id : rng_.sample(alive, config_.bootstrap_subset)) {
          if (!subset.empty()) subset += ',';
          subset += id.to_string();
        }
      }
      const auto reply = Msg::control(MsgType::kBootReply, self_, kControlApp,
                                      0, 0, subset);
      std::lock_guard<std::mutex> lock(mu_);
      if (!write_msg(c.conn, *reply)) {
        IOV_LOG_WARN("observer") << "bootstrap reply to "
                                 << m->origin().to_string() << " failed";
      }
      return;
    }

    case MsgType::kReport: {
      reports_seen_.inc();
      auto report = engine::NodeReport::parse(m->text());
      if (!report) malformed_reports_.inc();

      // A v2 report carries a single-line metrics snapshot; a v1 report
      // (or a v2 line that fails to parse) leaves last_metrics untouched.
      std::optional<obs::MetricsSnapshot> snap;
      if (report && !report->metrics_wire.empty()) {
        obs::MetricsSnapshot parsed;
        if (obs::MetricsSnapshot::parse(report->metrics_wire, &parsed)) {
          snap = std::move(parsed);
        } else {
          malformed_reports_.inc();
        }
      }

      std::lock_guard<std::mutex> lock(mu_);
      auto& info = nodes_[m->origin()];
      info.id = m->origin();
      info.alive = true;
      info.last_seen = t;
      if (report) info.last_report = std::move(*report);
      if (snap) info.last_metrics = std::move(*snap);
      const auto pending = pending_requests_.find(m->origin());
      if (pending != pending_requests_.end()) {
        report_rtt_.observe_duration(t - pending->second);
        pending_requests_.erase(pending);
      }
      return;
    }

    case MsgType::kTrace: {
      traces_seen_.inc();
      TraceRecord record{t, m->origin(), std::string(m->text())};
      std::lock_guard<std::mutex> lock(mu_);
      if (!config_.trace_path.empty()) {
        std::ofstream out(config_.trace_path, std::ios::app);
        out << strf("[%12.6f] %s ", to_seconds(t),
                    record.node.to_string().c_str())
            << record.text << '\n';
      }
      traces_.push_back(std::move(record));
      return;
    }

    default:
      IOV_LOG_DEBUG("observer")
          << "unexpected message " << m->describe() << " from "
          << m->origin().to_string();
      return;
  }
}

void Observer::mark_dead(const NodeId& node) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(conns_, [&](const auto& c) { return c->node == node; });
  const auto it = nodes_.find(node);
  if (it != nodes_.end()) it->second.alive = false;
}

std::vector<Observer::NodeInfo> Observer::nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NodeInfo> out;
  out.reserve(nodes_.size());
  for (const auto& [id, info] : nodes_) out.push_back(info);
  return out;
}

std::optional<Observer::NodeInfo> Observer::node(const NodeId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return std::nullopt;
  return it->second;
}

std::size_t Observer::alive_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, info] : nodes_) n += info.alive ? 1 : 0;
  return n;
}

std::vector<TraceRecord> Observer::traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_;
}

std::string Observer::topology_dot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "digraph overlay {\n";
  for (const auto& [id, info] : nodes_) {
    out += strf("  \"%s\" [style=%s];\n", id.to_string().c_str(),
                info.alive ? "solid" : "dashed");
    if (!info.last_report) continue;
    for (const auto& down : info.last_report->downstreams) {
      out += strf("  \"%s\" -> \"%s\" [label=\"%.1f KB/s\"];\n",
                  id.to_string().c_str(), down.peer.to_string().c_str(),
                  down.rate_bps / 1000.0);
    }
  }
  out += "}\n";
  return out;
}

obs::MetricsSnapshot Observer::metrics_snapshot() const {
  obs::MetricsSnapshot own = metrics_.snapshot();
  own.add_label("node", "observer");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, info] : nodes_) {
    if (!info.last_metrics) continue;
    obs::MetricsSnapshot node_snap = *info.last_metrics;
    node_snap.add_label("node", id.to_string());
    own.merge(node_snap);
  }
  return own;
}

bool Observer::request_report(const NodeId& node) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Keep the earliest outstanding request so overlapping requests do
    // not shrink the measured round-trip.
    pending_requests_.try_emplace(node, RealClock::instance().now());
  }
  return send_control(node, MsgType::kRequest);
}

bool Observer::send_control(const NodeId& node, MsgType type, i32 p0, i32 p1,
                            std::string_view text) {
  const auto m = Msg::control(type, self_, kControlApp, p0, p1, text);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : conns_) {
    if (c->node == node) return write_msg(c->conn, *m);
  }
  return false;
}

bool Observer::set_bandwidth(const NodeId& node, i32 scope,
                             double bytes_per_sec, const NodeId& peer) {
  return send_control(node, MsgType::kSetBandwidth, scope,
                      static_cast<i32>(bytes_per_sec),
                      peer.valid() ? peer.to_string() : std::string());
}

}  // namespace iov::observer
