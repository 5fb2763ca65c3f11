// Real-substrate streaming churn runner: the same ChurnSchedule executed
// against live engines over loopback TCP, with the observer control plane
// carrying the fault events (RealChaosDriver). Wall-clock timing, so keep
// viewer counts and horizons small — the cross-substrate conformance test
// compares surviving-viewer sets and bounded metric aggregates against
// the simulator run, not exact traces.
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "apps/streaming.h"
#include "chaos/real_driver.h"
#include "common/logging.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "obs/metric_names.h"
#include "observer/observer.h"
#include "scenario/streaming_churn.h"
#include "scenario/verify_streaming.h"

namespace iov::scenario {

namespace {

/// TreeAlgorithm whose session state the scenario thread can read while
/// the engine thread mutates it: every processed message (timers
/// included — they arrive as kTimer messages) refreshes a mutex-guarded
/// mirror.
class WatchedTree : public trees::TreeAlgorithm {
 public:
  WatchedTree(u32 app, trees::TreeStrategy strategy, double last_mile)
      : trees::TreeAlgorithm(strategy, last_mile), app_(app) {}

  struct Snap {
    bool in_tree = false;
    std::optional<NodeId> parent;
    std::set<NodeId> children;
  };

  Snap snap() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

  Disposition process(const MsgPtr& m) override {
    const Disposition d = trees::TreeAlgorithm::process(m);
    Snap fresh;
    fresh.in_tree = in_tree(app_);
    fresh.parent = parent(app_);
    for (const NodeId& c : children(app_)) fresh.children.insert(c);
    std::lock_guard<std::mutex> lock(mu_);
    snap_ = std::move(fresh);
    return d;
  }

 private:
  const u32 app_;
  mutable std::mutex mu_;
  Snap snap_;
};

struct RealViewer {
  std::unique_ptr<engine::Engine> engine;
  WatchedTree* alg = nullptr;
  std::shared_ptr<ViewerSink> sink;
  bool joined = false;
  bool departed = false;
};

/// Depth of every node whose parent chain reaches the source, computed
/// from the watched snapshots (parallel of the sim runner's ShapeView).
std::map<NodeId, std::size_t> rooted_depths(
    const std::map<NodeId, WatchedTree::Snap>& views, const NodeId& source) {
  std::map<NodeId, std::size_t> depth;
  const auto src = views.find(source);
  if (src != views.end() && src->second.in_tree) depth[source] = 0;
  for (const auto& [id, v] : views) {
    if (depth.count(id) || !v.in_tree) continue;
    std::vector<NodeId> path;
    std::set<NodeId> on_path;
    NodeId cur = id;
    i64 base = -1;
    while (true) {
      const auto known = depth.find(cur);
      if (known != depth.end()) {
        base = static_cast<i64>(known->second);
        break;
      }
      if (on_path.count(cur)) break;
      const auto it = views.find(cur);
      if (it == views.end() || !it->second.in_tree || !it->second.parent) {
        break;
      }
      path.push_back(cur);
      on_path.insert(cur);
      cur = *it->second.parent;
    }
    if (base >= 0) {
      for (std::size_t i = 0; i < path.size(); ++i) {
        depth[path[i]] = static_cast<std::size_t>(base) + (path.size() - i);
      }
    }
  }
  return depth;
}

}  // namespace

StreamingChurnResult run_real_streaming_churn(
    const StreamingChurnConfig& config) {
  namespace names = obs::names;
  StreamingChurnResult out;
  out.schedule = generate_churn(config.churn);
  const u32 app = config.app;

  observer::ObserverConfig oc;
  oc.bootstrap_subset = config.bootstrap_subset;
  oc.seed = config.churn.seed;
  observer::Observer obs{oc};
  if (!obs.start()) {
    out.verify_failures.push_back("observer failed to start");
    return out;
  }
  obs::MetricsRegistry& reg = obs.metrics();

  const double last_mile =
      config.viewer_bandwidth > 0 ? config.viewer_bandwidth : 200e3;
  const auto make_engine = [&](WatchedTree** alg_out) {
    auto algorithm =
        std::make_unique<WatchedTree>(app, config.strategy, last_mile);
    algorithm->set_data_timeout(config.data_timeout);
    *alg_out = algorithm.get();
    engine::EngineConfig ec;
    ec.observer = obs.address();
    return std::make_unique<engine::Engine>(ec, std::move(algorithm));
  };

  WatchedTree* source_alg = nullptr;
  auto source_engine = make_engine(&source_alg);
  source_engine->register_app(
      app, std::make_shared<apps::VideoSource>(config.fps, config.gop,
                                               config.iframe_bytes,
                                               config.pframe_bytes));
  if (!source_engine->start()) {
    out.verify_failures.push_back("source engine failed to start");
    return out;
  }
  const NodeId source = source_engine->self();

  const auto deadline_wait = [&](const auto& pred, Duration limit) {
    const TimePoint until = RealClock::instance().now() + limit;
    while (!pred()) {
      if (RealClock::instance().now() >= until) return false;
      sleep_for(millis(10));
    }
    return true;
  };
  // Viewers find the tree through bootstrap replies naming the nodes
  // registered before them, so the source registers first (the simulated
  // run bootstraps every viewer with it); boots register as they arrive.
  if (!deadline_wait([&] { return obs.alive_count() == 1; }, seconds(10.0))) {
    out.verify_failures.push_back("source never registered with observer");
    return out;
  }

  std::vector<RealViewer> viewers(out.schedule.viewers);
  for (auto& v : viewers) {
    v.engine = make_engine(&v.alg);
    v.sink = std::make_shared<ViewerSink>(config.fps);
    v.engine->register_app(app, v.sink);
    if (!v.engine->start()) {
      out.verify_failures.push_back("viewer engine failed to start");
      return out;
    }
  }

  if (!deadline_wait(
          [&] { return obs.alive_count() == viewers.size() + 1; },
          seconds(10.0))) {
    out.verify_failures.push_back("nodes never registered with observer");
    return out;
  }
  obs.announce(source, app, source);
  for (const auto& v : viewers) obs.announce(v.engine->self(), app, source);
  obs.deploy(source, app);

  chaos::FaultPlan executed;
  const TimePoint t0 = RealClock::instance().now();
  const auto scenario_seconds = [&] {
    return to_seconds(RealClock::instance().now() - t0);
  };
  const auto churn_count = [&](const char* action) -> obs::Counter& {
    return reg.counter(names::kStreamChurnEventsTotal, {{"action", action}});
  };

  const auto collect_views = [&] {
    std::map<NodeId, WatchedTree::Snap> views;
    views.emplace(source, source_alg->snap());
    for (const auto& v : viewers) {
      if (v.joined && !v.departed) {
        views.emplace(v.engine->self(), v.alg->snap());
      }
    }
    return views;
  };

  const auto do_sample = [&] {
    const auto views = collect_views();
    const auto depth = rooted_depths(views, source);
    TreeShapeSample s;
    s.at = RealClock::instance().now() - t0;
    std::size_t degree_nodes = 0;
    std::size_t degree_sum = 0;
    const auto fold_degree = [&](const WatchedTree::Snap& v) {
      const std::size_t d = v.children.size() + (v.parent ? 1 : 0);
      degree_nodes++;
      degree_sum += d;
      s.max_degree = std::max(s.max_degree, d);
    };
    if (depth.count(source)) fold_degree(views.at(source));
    for (const auto& v : viewers) {
      if (!v.joined || v.departed) continue;
      s.wanting++;
      const NodeId id = v.engine->self();
      const auto it = views.find(id);
      if (it != views.end() && it->second.in_tree) s.in_tree++;
      const auto d = depth.find(id);
      if (d != depth.end()) {
        s.depth = std::max(s.depth, d->second);
        fold_degree(it->second);
      } else {
        s.orphans++;
      }
    }
    s.mean_degree = degree_nodes == 0
                        ? 0.0
                        : static_cast<double>(degree_sum) /
                              static_cast<double>(degree_nodes);
    out.shape.push_back(s);
    reg.gauge(names::kStreamViewersInTree).set(static_cast<i64>(s.in_tree));
    reg.gauge(names::kStreamOrphans).set(static_cast<i64>(s.orphans));
    reg.gauge(names::kStreamTreeDepth).set(static_cast<i64>(s.depth));
    reg.gauge(names::kStreamTreeDegreeMax)
        .set(static_cast<i64>(s.max_degree));
  };

  const auto apply_event = [&](const ChurnEvent& e) {
    RealViewer& vs = viewers[e.viewer];
    const NodeId id = vs.engine->self();
    switch (e.action) {
      case ChurnAction::kJoin: {
        if (vs.joined || vs.departed) break;
        vs.joined = true;
        vs.sink->mark_join(RealClock::instance().now());
        obs.join_app(id, app);
        churn_count("join").inc();
        out.trace.push_back(strf("[%12.6f] join v%zu (%s)",
                                 scenario_seconds(), e.viewer,
                                 id.to_string().c_str()));
        break;
      }
      case ChurnAction::kDrop: {
        if (!vs.joined || vs.departed) break;
        const auto parent = vs.alg->snap().parent;
        if (!parent) {
          out.trace.push_back(strf("[%12.6f] drop v%zu skipped (no parent)",
                                   scenario_seconds(), e.viewer));
          break;
        }
        chaos::FaultPlan plan;
        plan.sever(0, id.to_string(), parent->to_string());
        chaos::RealChaosDriver driver(obs, std::move(plan), {});
        driver.run();
        for (const std::string& line : driver.trace()) {
          out.trace.push_back(line);
        }
        executed.sever(RealClock::instance().now() - t0, id.to_string(),
                       parent->to_string());
        vs.sink->mark_drop(RealClock::instance().now());
        churn_count("drop").inc();
        break;
      }
      case ChurnAction::kDepart: {
        if (!vs.joined || vs.departed) break;
        chaos::FaultPlan plan;
        plan.kill(0, id.to_string());
        chaos::RealChaosDriver driver(obs, std::move(plan), {});
        driver.run();
        for (const std::string& line : driver.trace()) {
          out.trace.push_back(line);
        }
        executed.kill(RealClock::instance().now() - t0, id.to_string());
        vs.departed = true;
        vs.sink->mark_depart(RealClock::instance().now());
        churn_count("depart").inc();
        break;
      }
    }
  };

  // Wall-clock merge of churn events and shape samples.
  const Duration total = config.churn.horizon + config.settle;
  std::size_t ei = 0;
  Duration next_sample = config.sample_period;
  while (true) {
    Duration target = std::min(total, next_sample);
    if (ei < out.schedule.events.size() &&
        out.schedule.events[ei].at < target) {
      target = out.schedule.events[ei].at;
    }
    const Duration wait = t0 + target - RealClock::instance().now();
    if (wait > 0) sleep_for(wait);
    while (ei < out.schedule.events.size() &&
           out.schedule.events[ei].at <= target) {
      apply_event(out.schedule.events[ei]);
      ++ei;
    }
    if (target == next_sample) {
      do_sample();
      next_sample += config.sample_period;
    }
    if (target == total) break;
  }

  out.plan_text = executed.to_string();
  const TimePoint end = RealClock::instance().now();
  const auto final_views = collect_views();
  const auto final_depth = rooted_depths(final_views, source);

  obs::Counter& frames_total = reg.counter(names::kStreamFramesTotal);
  obs::Histogram& h_first = reg.histogram(names::kStreamFirstPacketSeconds);
  obs::Histogram& h_rejoin = reg.histogram(names::kStreamRejoinSeconds);
  obs::Histogram& h_gap = reg.histogram(names::kStreamGapSeconds);
  out.viewers.resize(viewers.size());
  for (std::size_t v = 0; v < viewers.size(); ++v) {
    RealViewer& vs = viewers[v];
    vs.sink->finish(end);
    ViewerOutcome& o = out.viewers[v];
    o.viewer = v;
    o.id = vs.engine->self();
    o.ever_joined = vs.joined;
    o.departed = vs.departed;
    o.alive_in_tree = final_depth.count(o.id) > 0;
    o.continuity = vs.sink->stats();
    if (!o.ever_joined) continue;
    frames_total.inc(o.continuity.frames);
    if (o.continuity.first_packet_latency >= 0) {
      h_first.observe(o.continuity.first_packet_latency);
    }
    for (const double r : o.continuity.rejoin_latencies) h_rejoin.observe(r);
    h_gap.observe(o.continuity.gap_seconds);
  }

  const chaos::VerifyResult orphans_ok =
      chaos::verify_no_permanent_orphans(out);
  out.verify_failures.insert(out.verify_failures.end(),
                             orphans_ok.failures.begin(),
                             orphans_ok.failures.end());
  out.metrics_text = reg.snapshot().serialize();

  for (auto& v : viewers) v.engine->stop();
  source_engine->stop();
  return out;
}

}  // namespace iov::scenario
