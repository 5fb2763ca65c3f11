// PeerLink — one persistent connection to a peer node, with its buffers,
// meters and the event-driven wire path between them (paper Fig. 4,
// DESIGN.md §9).
//
// The paper gives every connection a receiver thread and a sender thread;
// because connections are persistent and full duplex ("all the messages
// between two nodes are carried with the same connection"), both share
// one TCP socket. Here the two thread bodies are one state machine on
// the reactor worker its engine lives on:
//
//   kConnecting --connect done--> kHandshaking --hello flushed-->
//   kEstablished --stop()/failure--> kDraining
//
// Data-plane flow (batched wire path, DESIGN.md §8), all on one worker:
//   readable:     socket --FrameReader bulk decode--> per message:
//                 [bandwidth recv pacing] --> recv buffer, then the
//                 owner's switch pass is scheduled (on_link_ready)
//   switch pass:  recv buffer --batch pop, algorithm--> send buffer,
//                 then notify_send() defers one pump to after the pass
//   pump:         send buffer --batch pop--> per message: [bandwidth send
//                 pacing, splitting the flush at every throttle boundary]
//                 --scatter-gather sendmsg--> socket
//
// The bracketed pacing steps run only while the node's BandwidthEmulator
// has a limit set; otherwise a message costs no emulator call and no
// clock read. The receive pump reads the clock once per call, for the
// meters and the receive-buffer stamps of every message it routes.
//
// Pacing sleeps become reactor timers, and the flush-before-sleep rule
// keeps emulated departure/arrival times exact. Back-pressure is
// event-loop parking:
//   * recv buffer full  -> stop reading (drop EPOLLIN; kernel window
//     fills; TCP pushes back) until the switch drains the buffer and
//     calls notify_recv_space();
//   * send buffer empty -> do nothing until the switch pushes and calls
//     notify_send().
//
// Control-plane messages received on the link (anything but kData) bypass
// the buffers and go straight to the owner (on_link_message), as do
// failures (on_link_failed). A link of ConnKind::kControl (the observer
// and proxy planes) hands every message to the owner, skips bandwidth
// emulation and has a send buffer of kControlLinkMsgs.
//
// Threading: every method, constructor and destructor included, runs on
// the link's worker thread; nothing here is shared with another thread.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/bounded_queue.h"
#include "common/clock.h"
#include "common/node_id.h"
#include "common/rng.h"
#include "engine/config.h"
#include "message/codec.h"
#include "message/msg.h"
#include "message/slab_pool.h"
#include "net/bandwidth.h"
#include "net/framing.h"
#include "net/reactor/reactor.h"
#include "net/socket.h"
#include "net/throughput.h"
#include "obs/metrics.h"

namespace iov::engine {

/// A data message waiting in a receive buffer, stamped with the time the
/// link enqueued it so the switch can measure enqueue→dequeue latency
/// (docs/METRICS.md: iov_switch_latency_seconds).
struct Inbound {
  MsgPtr msg;
  TimePoint enqueued_at = 0;
};

class PeerLink;

/// Send-buffer capacity of every link of kind kControl, which carries
/// reports, traces and commands rather than overlay traffic.
constexpr std::size_t kControlLinkMsgs = 1024;

/// The engine side of a link. Every call arrives on the link's worker
/// thread, from inside one of the link's own callbacks: implementations
/// must not destroy the link before the call returns.
class LinkOwner {
 public:
  virtual ~LinkOwner() = default;
  /// A control-plane message arrived.
  virtual void on_link_message(PeerLink& link, MsgPtr m) = 0;
  /// The link pushed into its receive buffer or freed send-buffer space.
  virtual void on_link_ready(PeerLink& /*link*/) {}
  /// The link failed (kPeerFailed or kSendFailed) and has detached.
  virtual void on_link_failed(PeerLink& link, MsgType kind) = 0;
  /// A link this node dialed decoded its first frame, which the link
  /// holds back until this returns; the owner may attach the peer's
  /// crossing connection with drain_crossing(), ahead of that frame.
  virtual void on_first_frame(PeerLink& /*link*/) {}
};

class PeerLink final : public reactor::EventHandler {
 public:
  /// Takes ownership of `conn`. `config` supplies the connect timeout and
  /// a persistent link's buffer capacities (read during construction
  /// only); `metrics`
  /// must outlive the link. `pool` serves the large-frame payload slabs
  /// and must outlive the link (the engine owns both). `worker` drives
  /// the link for its whole life and must be the calling thread.
  /// `dial_pending` means `conn` came from TcpConn::connect_start and the
  /// TCP handshake (then our hello of `kind`) must complete before frames
  /// flow; false means an accepted, hello-completed socket.
  PeerLink(NodeId self, NodeId peer, TcpConn conn, const EngineConfig& config,
           BandwidthEmulator& bandwidth, const Clock& clock, LinkOwner& owner,
           obs::MetricsRegistry& metrics, SlabPool& pool,
           reactor::Worker& worker, bool dial_pending = false,
           ConnKind kind = ConnKind::kPersistent);
  ~PeerLink() override;

  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  /// Registers the socket with the worker and starts the state machine.
  /// Never calls back into the owner before returning (a failure to
  /// register is reported from a deferred call).
  void start();

  /// The switch pushed into the send buffer: pump once after the current
  /// pass (deduplicated).
  void notify_send();

  /// Queues `m` and notifies; false, queueing nothing, when the send
  /// buffer is full.
  bool try_send(MsgPtr m) {
    if (!send_buffer_.try_push(std::move(m))) return false;
    notify_send();
    return true;
  }

  /// The switch drained the receive buffer: resume a reader parked on a
  /// full buffer after the current pass (no-op otherwise).
  void notify_recv_space();

  /// Tears the link down now: deregisters the socket, cancels its timers,
  /// accounts undelivered egress as lost and shuts the socket down (the
  /// peer sees EOF). Idempotent; no callback follows.
  void stop();

  /// This link replaces `old`, a connection to the same peer (the
  /// dropped side of a crossing dial, or one the peer gave up on): every
  /// message `old` had not completely written — staged frames (a partly
  /// written one is sent again whole), popped and paced messages, then
  /// its send buffer — goes out first, oldest first, and `old`'s meters
  /// carry over. Call before start(); `old` is left empty.
  void take_over(PeerLink& old);

  /// Crossing dial, surviving side: `old` is the peer's own dial, which
  /// the peer is dropping. Its frames are read to EOF (a truncated last
  /// frame is discarded; the peer resends it whole) and delivered before
  /// anything this link reads from then on.
  void drain_crossing(TcpConn old);

  const NodeId& peer() const { return peer_; }

  /// True for a link this node dialed.
  bool dialed() const { return dial_pending_; }

  /// Receive buffer the switch drains.
  BoundedQueue<Inbound>& recv_buffer() { return recv_buffer_; }
  const BoundedQueue<Inbound>& recv_buffer() const { return recv_buffer_; }

  /// Send buffer the switch fills.
  BoundedQueue<MsgPtr>& send_buffer() { return send_buffer_; }
  const BoundedQueue<MsgPtr>& send_buffer() const { return send_buffer_; }

  /// Refreshes the queue-depth gauges; the engine calls this from the
  /// switch so depth tracks the data plane.
  void update_queue_gauges();

  const ThroughputMeter& up_meter() const { return up_meter_; }
  const ThroughputMeter& down_meter() const { return down_meter_; }
  ThroughputMeter& down_meter() { return down_meter_; }

  /// Emulated sender-side message loss (kSetLoss fault injection): each
  /// queued message is dropped with this probability before hitting the
  /// wire, accounted in the down-direction loss meters.
  void set_send_loss(double probability);

  void on_event(u32 events) override;

 private:
  enum class State { kConnecting, kHandshaking, kEstablished, kDraining };

  /// The peer's dropped crossing connection, read to EOF before this
  /// link's own socket.
  struct Predecessor final : reactor::EventHandler {
    Predecessor(PeerLink& l, TcpConn c, SlabPool& pool)
        : link(l), conn(std::move(c)), reader(conn, pool) {}
    void on_event(u32) override { link.pump_recv(); }
    PeerLink& link;
    TcpConn conn;
    FrameReader reader;
    bool registered = false;
  };

  void connect_ready();
  void pump_send();
  void pump_recv();
  void on_send_pace_done();
  void on_recv_pace_done();
  void resume_recv();

  /// Moves pacing-cleared messages onto the wire queue (headers encoded
  /// here, so a partial write can resume byte-exactly).
  void stage_pending();

  /// Writes the raw handshake bytes, then wire frames, until drained or
  /// EAGAIN (arms EPOLLOUT) or error (fails the link). Returns true only
  /// when everything staged so far is on the wire.
  bool flush_wire();

  /// Hands the decoded batch to the switch. On a full buffer parks the
  /// reader (recv_full_, EPOLLIN off) and returns false.
  bool flush_inbound();

  /// Post-pacing half of message delivery: meters, then route to the
  /// recv buffer (kData) or the owner (control). `now` is the caller's
  /// one clock read for its whole batch, never one cached across calls
  /// (the up meter's idle time drives failure detection).
  void account_and_route(MsgPtr m, TimePoint now);

  /// True while the reader must not consume more input.
  bool reading_blocked() const { return paced_ || held_ctrl_ || recv_full_; }

  /// Marks the link failed, detaches, and tells the owner.
  void fail(MsgType kind);

  /// Removes the fds, timers and deferred calls from the worker and
  /// accounts every undelivered egress message as lost. Idempotent.
  void detach();

  /// Recomputes the epoll interest masks from the parked/blocked flags.
  void update_interest();

  /// Moves out every message not yet completely on the wire, oldest
  /// first.
  std::vector<MsgPtr> take_unsent();

  /// Loss accounting shared by every sender-side drop site.
  void count_send_loss(const Msg& m);

  int fd() const { return conn_.fd(); }

  const NodeId self_;
  const NodeId peer_;
  TcpConn conn_;
  BandwidthEmulator& bandwidth_;
  const Clock& clock_;
  LinkOwner& owner_;
  SlabPool& pool_;
  reactor::Worker& worker_;
  const bool dial_pending_;
  const ConnKind kind_;
  const Duration connect_timeout_;

  BoundedQueue<Inbound> recv_buffer_;
  BoundedQueue<MsgPtr> send_buffer_;
  ThroughputMeter up_meter_;    // bytes received from peer
  ThroughputMeter down_meter_;  // bytes sent to peer

  // Cached registry handles; `dir` is "up" for peer→us traffic, "down"
  // for us→peer (paper Fig. 4).
  obs::Counter& up_bytes_;
  obs::Counter& up_msgs_;
  obs::Counter& down_bytes_;
  obs::Counter& down_msgs_;
  obs::Counter& down_lost_bytes_;
  obs::Counter& down_lost_msgs_;
  obs::Gauge& recv_depth_;
  obs::Gauge& send_depth_;
  obs::Histogram& recv_throttle_wait_;
  obs::Histogram& send_throttle_wait_;
  obs::Counter& up_syscalls_;    ///< recv syscalls issued by the FrameReader
  obs::Counter& down_syscalls_;  ///< sendmsg calls issued by flushes
  obs::Histogram& up_flush_msgs_;    ///< frames decoded per recv refill
  obs::Histogram& down_flush_msgs_;  ///< messages per staged flush
  obs::Histogram& loop_lag_;         ///< reactor timer scheduling lag

  // Injected loss, parts per million.
  u32 send_loss_ppm_ = 0;
  Rng loss_rng_;

  State state_ = State::kConnecting;
  bool detached_ = false;
  bool registered_ = false;   ///< fd currently added to the worker's epoll
  bool suspended_ = false;    ///< deregistered while parked (HUP/ERR storm)
  u32 interest_ = 0;          ///< current epoll interest mask
  bool send_deferred_ = false;    ///< a pump is deferred
  bool resume_deferred_ = false;  ///< a recv resume or continuation is deferred

  std::vector<u8> raw_head_;  ///< hello bytes to send before any frame
  std::size_t raw_off_ = 0;

  // Receive path.
  FrameReader reader_;
  std::unique_ptr<Predecessor> predecessor_;
  bool awaiting_first_frame_;  ///< dialed persistent link, nothing decoded
  MsgPtr first_frame_;         ///< held while a predecessor drains
  std::vector<Inbound> inbound_;  ///< decoded kData awaiting one batch push
  MsgPtr paced_;      ///< decoded message waiting out a recv pacing timer
  MsgPtr held_ctrl_;  ///< control message waiting for inbound_ to flush
  bool recv_full_ = false;  ///< recv buffer refused part of inbound_
  u64 seen_syscalls_ = 0;
  u64 refill_msgs_ = 0;

  // Send path.
  std::vector<MsgPtr> popped_;   ///< batch popped from the send buffer
  std::size_t popped_idx_ = 0;   ///< first unprocessed element of popped_
  std::vector<MsgPtr> pending_;  ///< pacing-cleared, not yet staged
  std::deque<MsgPtr> wire_msgs_;              ///< staged frames
  std::deque<codec::HeaderBytes> wire_headers_;
  std::size_t wire_off_ = 0;   ///< bytes of the front frame already sent
  bool send_paced_ = false;    ///< a send pacing timer is pending
  bool write_blocked_ = false; ///< last write hit EAGAIN; EPOLLOUT armed
};

}  // namespace iov::engine
