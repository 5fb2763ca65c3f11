// The algorithm layer base class — the paper's `iAlgorithm` (§2.2 "Basic
// elements of algorithms", §2.3 Table 2).
//
// An application-specific algorithm derives from Algorithm and overrides
// the handlers it cares about; everything it does not handle falls
// through to the defaults here ("if a message type is not handled in the
// algorithm, the default process() function provided by the base
// iAlgorithm class takes this responsibility. In fact, the only message
// type that the algorithm must handle is the type data").
//
// Two equivalent extension styles are supported:
//   * override process() wholesale and write the paper's switch statement
//     (call Algorithm::process(m) as the default branch, exactly Table 2);
//   * or override the typed on_*() hooks, which the base process()
//     dispatches to. This is what the bundled algorithms do.
//
// Everything runs on the node's reactor worker; no locking anywhere (§2.1).
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "algorithm/engine_api.h"
#include "algorithm/known_hosts.h"
#include "common/node_id.h"
#include "message/msg.h"

namespace iov {

/// What the algorithm tells the engine about a message it was handed.
enum class Disposition {
  /// Processing complete; the engine may reclaim its reference.
  kDone,
  /// The algorithm buffered the message for n-to-m merging/coding and
  /// will emit results later (§2.2, the `hold` mechanism). The engine
  /// keeps hands off; the algorithm now co-owns the reference.
  kHold,
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Called by the engine exactly once before any message is delivered.
  void bind(EngineApi& api) { api_ = &api; }

  /// Called once the engine is running and (if configured) bootstrapped.
  virtual void on_start() {}

  /// The message handler (paper Table 2). The default implementation
  /// dispatches to the typed hooks below and implements the iAlgorithm
  /// default behaviours (recording KnownHosts from bootstrap replies,
  /// replying to pings, tracking throughput reports, ...).
  virtual Disposition process(const MsgPtr& m);

  /// One-line algorithm status appended to the periodic observer report.
  virtual std::string status() const { return {}; }

  /// Membership view (bootstrap subset plus origins learned since).
  const KnownHosts& known_hosts() const { return known_hosts_; }
  KnownHosts& known_hosts() { return known_hosts_; }

 protected:
  /// The engine this algorithm is bound to. Only valid inside callbacks.
  EngineApi& engine() const { return *api_; }

  // --- Typed hooks (defaults are no-ops unless stated) -----------------------

  /// A data message arrived (from the network or from the local source
  /// pump). This is the one handler real algorithms must implement; the
  /// default consumes the message locally (delivers it to the registered
  /// application) without forwarding.
  virtual Disposition on_data(const MsgPtr& m);

  /// Observer deployed an application source at this node. The engine has
  /// already started pumping the application; the hook lets the algorithm
  /// set up dissemination state.
  virtual void on_deploy(u32 app) { (void)app; }

  /// Observer terminated the application source hosted here.
  virtual void on_terminate_source(u32 app) { (void)app; }

  /// Observer asked this node to join session `app`. `arg` is the
  /// control message's text parameter (algorithm-specific, e.g. a hint
  /// about an existing member).
  virtual void on_join(u32 app, std::string_view arg) {
    (void)app;
    (void)arg;
  }

  /// Observer asked this node to leave session `app`.
  virtual void on_leave(u32 app) { (void)app; }

  /// Algorithm-specific observer control (paper: a type plus two integer
  /// parameters).
  virtual void on_control(const MsgPtr& m) { (void)m; }

  /// The observer announced the data source of session `app` (paper type
  /// sAnnounce); `source` is the source node's id in text form.
  virtual void on_announce(u32 app, std::string_view source) {
    (void)app;
    (void)source;
  }

  /// The session source at `m->origin()` failed; clear per-app state
  /// (paper Table 2, case BrokenSource).
  virtual void on_broken_source(const MsgPtr& m) { (void)m; }

  /// The direct link to `peer` failed or was torn down.
  virtual void on_broken_link(const NodeId& peer) { (void)peer; }

  /// A timer armed via engine().set_timer fired.
  virtual void on_timer(i32 timer_id) { (void)timer_id; }

  /// Throughput report for the incoming link from `peer` (case
  /// UpThroughput in Table 2). Default records it; see upstream_rate().
  virtual void on_up_throughput(const NodeId& peer, double bytes_per_sec);

  /// Throughput report for the outgoing link to `peer`.
  virtual void on_down_throughput(const NodeId& peer, double bytes_per_sec);

  /// A kPong echo came back; `rtt` is the measured round trip.
  virtual void on_pong(const NodeId& peer, Duration rtt) {
    (void)peer;
    (void)rtt;
  }

  /// Any message whose type is >= kFirstUserType (an algorithm protocol
  /// message from a peer). Default ignores it.
  virtual Disposition on_user(const MsgPtr& m) {
    (void)m;
    return Disposition::kDone;
  }

  // --- iAlgorithm utility library --------------------------------------------

  /// Gossip primitive (§2.2): sends a clone of `m` to each host in
  /// `targets` independently with probability `p`. Returns the number of
  /// copies sent.
  std::size_t disseminate(const MsgPtr& m, const std::vector<NodeId>& targets,
                          double p);

  /// disseminate() over the whole KnownHosts set.
  std::size_t disseminate(const MsgPtr& m, double p);

  /// Sends a latency probe; the base class will invoke on_pong() when the
  /// echo returns.
  void ping(const NodeId& peer);

  /// Most recent throughput report for the given peer, bytes/s (0 if none).
  double upstream_rate(const NodeId& peer) const;
  double downstream_rate(const NodeId& peer) const;

  const std::unordered_map<NodeId, double>& upstream_rates() const {
    return up_rate_;
  }
  const std::unordered_map<NodeId, double>& downstream_rates() const {
    return down_rate_;
  }

 private:
  EngineApi* api_ = nullptr;
  KnownHosts known_hosts_;
  std::unordered_map<NodeId, double> up_rate_;
  std::unordered_map<NodeId, double> down_rate_;
};

}  // namespace iov
