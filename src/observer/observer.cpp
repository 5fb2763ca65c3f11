#include "observer/observer.h"

#include <cstdio>

#include "common/clock.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metric_names.h"

namespace iov::observer {

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

Observer::~Observer() { stop(); }

bool Observer::start() {
  if (!acceptor_.listen(config_.port, config_.loopback_only)) return false;
  self_ = NodeId::loopback(acceptor_.port());
  if (!config_.trace_path.empty()) {
    trace_log_.open(config_.trace_path, std::ios::app);
  }
  worker_.call([this] { acceptor_.start(worker_); });
  return true;
}

void Observer::stop() {
  worker_.call([this] {
    acceptor_.stop();
    for (auto& [id, link] : links_) link->stop();
    links_.clear();
    worker_.cancel_deferred(this);  // destroys the retired links
  });
}

void Observer::on_hello(const Hello& hello, TcpConn& conn) {
  if (hello.kind != ConnKind::kControl) return;  // the acceptor closes it
  auto link = std::make_unique<engine::PeerLink>(
      self_, hello.sender, std::move(conn), engine::EngineConfig{},
      bandwidth_, RealClock::instance(), *this, link_metrics_, slab_pool_,
      worker_, /*dial_pending=*/false, ConnKind::kControl);
  auto& slot = links_[hello.sender];
  if (slot) {
    // A reconnecting node replaces its stale connection.
    slot->stop();
    worker_.retire(this, std::move(slot));
  }
  slot = std::move(link);
  slot->start();
}

void Observer::on_link_failed(engine::PeerLink& link, MsgType /*kind*/) {
  const NodeId node = link.peer();
  const auto it = links_.find(node);
  if (it == links_.end() || it->second.get() != &link) return;
  worker_.retire(this, std::move(it->second));  // still on the stack
  links_.erase(it);
  const auto info = nodes_.find(node);
  if (info != nodes_.end()) info->second.alive = false;
}

void Observer::on_link_message(engine::PeerLink& link, MsgPtr m) {
  const TimePoint t = RealClock::instance().now();
  switch (m->type()) {
    case MsgType::kBoot: {
      boots_seen_.inc();
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
      std::string subset;
      for (const auto& id : rng_.sample(alive, config_.bootstrap_subset)) {
        if (!subset.empty()) subset += ',';
        subset += id.to_string();
      }
      const auto reply = Msg::control(MsgType::kBootReply, self_, kControlApp,
                                      0, 0, subset);
      if (!link.try_send(reply)) {
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
      if (trace_log_.is_open()) {
        trace_log_ << strf("[%12.6f] %s ", to_seconds(t),
                           record.node.to_string().c_str())
                   << record.text << '\n'
                   << std::flush;
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

std::vector<Observer::NodeInfo> Observer::nodes() const {
  std::vector<NodeInfo> out;
  worker_.call([&] {
    out.reserve(nodes_.size());
    for (const auto& [id, info] : nodes_) out.push_back(info);
  });
  return out;
}

std::optional<Observer::NodeInfo> Observer::node(const NodeId& id) const {
  std::optional<NodeInfo> out;
  worker_.call([&] {
    const auto it = nodes_.find(id);
    if (it != nodes_.end()) out = it->second;
  });
  return out;
}

std::size_t Observer::alive_count() const {
  std::size_t n = 0;
  worker_.call([&] {
    for (const auto& [id, info] : nodes_) n += info.alive ? 1 : 0;
  });
  return n;
}

std::vector<TraceRecord> Observer::traces() const {
  std::vector<TraceRecord> out;
  worker_.call([&] { out = traces_; });
  return out;
}

std::string Observer::topology_dot() const {
  std::string out = "digraph overlay {\n";
  worker_.call([&] {
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
  });
  out += "}\n";
  return out;
}

obs::MetricsSnapshot Observer::metrics_snapshot() const {
  obs::MetricsSnapshot own = metrics_.snapshot();
  own.add_label("node", "observer");
  worker_.call([&] {
    for (const auto& [id, info] : nodes_) {
      if (!info.last_metrics) continue;
      obs::MetricsSnapshot node_snap = *info.last_metrics;
      node_snap.add_label("node", id.to_string());
      own.merge(node_snap);
    }
  });
  return own;
}

bool Observer::request_report(const NodeId& node) {
  worker_.call([&] {
    // Keep the earliest outstanding request so overlapping requests do
    // not shrink the measured round-trip.
    pending_requests_.try_emplace(node, RealClock::instance().now());
  });
  return send_control(node, MsgType::kRequest);
}

bool Observer::send_control(const NodeId& node, MsgType type, i32 p0, i32 p1,
                            std::string_view text) {
  const auto m = Msg::control(type, self_, kControlApp, p0, p1, text);
  bool sent = false;
  worker_.call([&] {
    const auto it = links_.find(node);
    sent = it != links_.end() && it->second->try_send(m);
  });
  return sent;
}

bool Observer::set_bandwidth(const NodeId& node, i32 scope,
                             double bytes_per_sec, const NodeId& peer) {
  return send_control(node, MsgType::kSetBandwidth, scope,
                      static_cast<i32>(bytes_per_sec),
                      peer.valid() ? peer.to_string() : std::string());
}

}  // namespace iov::observer
