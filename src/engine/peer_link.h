// PeerLink — one persistent connection to a peer node, with its buffers,
// meters and the event-driven wire path between them (paper Fig. 4,
// DESIGN.md §9).
//
// The paper gives every connection a receiver thread and a sender thread;
// because connections are persistent and full duplex ("all the messages
// between two nodes are carried with the same connection"), both share
// one TCP socket. Here the two thread bodies are one state machine pinned
// to a worker of the process-shared epoll reactor:
//
//   kConnecting --connect done--> kHandshaking --hello flushed-->
//   kEstablished --stop()/failure--> kDraining
//
// Data-plane flow (batched wire path, DESIGN.md §8):
//   worker, readable:  socket --FrameReader bulk decode--> per message:
//                      [bandwidth recv pacing] --> recv buffer
//   engine thread:     recv buffer --batch pop, switch/algorithm--> send
//                      buffer, then notify_send()
//   worker, pump:      send buffer --batch pop--> per message: [bandwidth
//                      send pacing, splitting the flush at every throttle
//                      boundary] --scatter-gather sendmsg--> socket
//
// Pacing sleeps become reactor timers, and the flush-before-sleep rule
// keeps emulated departure/arrival times exact. Back-pressure translates
// from blocking queue calls to event-loop parking:
//   * recv buffer full  -> stop reading (drop EPOLLIN; kernel window
//     fills; TCP pushes back) until the engine drains the buffer and
//     calls notify_recv_space();
//   * send buffer empty -> do nothing until the engine pushes and calls
//     notify_send().
//
// Control-plane messages received on the link (anything but kData) bypass
// the buffers and are posted straight to the engine's internal sink —
// the moral equivalent of the paper's trick of "passing application-layer
// messages across thread boundaries via the publicized port". Failures
// are reported the same way (kPeerFailed / kSendFailed).
//
// Threading: start/stop/join/notify_* are called from the engine thread;
// every other method runs on the owning reactor worker. The two sides meet
// only through atomics, the thread-safe queues, and Worker::submit (whose
// per-worker FIFO ordering guarantees that a notify task submitted before
// the stop task can never observe the link after teardown).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
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

/// Where links deposit messages for the engine thread.
class InternalSink {
 public:
  virtual ~InternalSink() = default;
  /// Enqueues a message for the engine thread and wakes it.
  virtual void post(MsgPtr m) = 0;
  /// Wakes the engine thread without a message (buffer state changed).
  virtual void wake() = 0;
};

class PeerLink final : public reactor::EventHandler {
 public:
  /// Takes ownership of `conn`. `config` supplies the buffer capacities
  /// and the connect timeout; `metrics` must outlive the link. `pool`
  /// serves the large-frame payload slabs and must outlive the link (the
  /// engine owns both). `worker` drives the link for its whole life.
  /// `dial_pending` means `conn` came from TcpConn::connect_start and the
  /// TCP handshake (then our hello) must complete on the worker before
  /// frames flow; false means an accepted, hello-completed socket.
  PeerLink(NodeId self, NodeId peer, TcpConn conn, const EngineConfig& config,
           BandwidthEmulator& bandwidth, const Clock& clock,
           InternalSink& sink, obs::MetricsRegistry& metrics, SlabPool& pool,
           reactor::Worker& worker, bool dial_pending = false);
  ~PeerLink() override;

  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  // --- Engine-thread API ---------------------------------------------------

  /// Registers the socket with the worker (asynchronously).
  void start();

  /// The engine pushed into the send buffer: schedule a send pump
  /// (deduplicated — at most one pump task in flight).
  void notify_send();

  /// The engine drained the receive buffer: resume a reader parked on a
  /// full buffer (no-op otherwise).
  void notify_recv_space();

  /// Initiates teardown: closes both buffers, shuts the socket down, and
  /// submits the teardown task to the worker. Idempotent.
  void stop();

  /// Blocks until the teardown task has run on the worker; after this no
  /// worker code touches the link again. Call after stop().
  void join();

  const NodeId& peer() const { return peer_; }

  /// Receive buffer the engine's switch drains. Engine-thread consumers
  /// should use try_pop().
  BoundedQueue<Inbound>& recv_buffer() { return recv_buffer_; }
  const BoundedQueue<Inbound>& recv_buffer() const { return recv_buffer_; }

  /// Send buffer the switch fills (try_push from the engine thread).
  BoundedQueue<MsgPtr>& send_buffer() { return send_buffer_; }
  const BoundedQueue<MsgPtr>& send_buffer() const { return send_buffer_; }

  /// Refreshes the queue-depth gauges; the engine calls this from the
  /// switch so depth tracks the data plane without extra locking here.
  void update_queue_gauges();

  const ThroughputMeter& up_meter() const { return up_meter_; }
  const ThroughputMeter& down_meter() const { return down_meter_; }
  ThroughputMeter& down_meter() { return down_meter_; }

  /// True once the link has observed a fatal socket error.
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// Emulated sender-side message loss (kSetLoss fault injection): each
  /// queued message is dropped with this probability before hitting the
  /// wire, accounted in the down-direction loss meters. Thread safe.
  void set_send_loss(double probability);

  // --- Worker-thread entry point -------------------------------------------

  void on_event(u32 events) override;

 private:
  enum class State { kConnecting, kHandshaking, kEstablished, kDraining };

  // All private methods run on the worker thread.
  void ws_start();
  void ws_connect_ready();
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
  /// reader (recv_full_, EPOLLIN off, engine woken) and returns false.
  bool flush_inbound();

  /// Post-pacing half of message delivery: meters, then route to the
  /// recv buffer (kData) or the internal sink (control).
  void account_and_route(MsgPtr m);

  /// True while the reader must not consume more input.
  bool read_parked() const { return paced_ || held_ctrl_ || recv_full_; }

  /// Marks the link failed, notifies the engine (unless stopping), and
  /// detaches.
  void fail(MsgType kind);

  /// Removes the fd and timers from the worker and accounts every
  /// undelivered egress message as lost. Idempotent.
  void detach();

  /// Recomputes the epoll interest mask from the parked/blocked flags.
  void update_interest();

  /// Loss accounting shared by every sender-side drop site.
  void count_send_loss(const Msg& m);

  int fd() const { return conn_.fd(); }

  const NodeId self_;
  const NodeId peer_;
  TcpConn conn_;
  BandwidthEmulator& bandwidth_;
  const Clock& clock_;
  InternalSink& sink_;
  reactor::Worker& worker_;
  const bool dial_pending_;
  const Duration connect_timeout_;

  BoundedQueue<Inbound> recv_buffer_;
  BoundedQueue<MsgPtr> send_buffer_;
  ThroughputMeter up_meter_;    // bytes received from peer
  ThroughputMeter down_meter_;  // bytes sent to peer

  // Cached registry handles (lock-free atomics on the hot path); `dir` is
  // "up" for peer→us traffic, "down" for us→peer (paper Fig. 4).
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
  obs::Histogram& loop_lag_;         ///< reactor task/timer scheduling lag

  // Injected loss, parts per million; the rng is worker-thread-only.
  std::atomic<u32> send_loss_ppm_{0};
  Rng loss_rng_;

  // --- Worker-thread state -------------------------------------------------
  State state_ = State::kConnecting;
  bool detached_ = false;
  bool registered_ = false;   ///< fd currently added to the worker's epoll
  bool suspended_ = false;    ///< deregistered while parked (HUP/ERR storm)
  u32 interest_ = 0;          ///< current epoll interest mask

  std::vector<u8> raw_head_;  ///< hello bytes to send before any frame
  std::size_t raw_off_ = 0;

  // Receive path.
  FrameReader reader_;
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

  // --- Cross-thread state --------------------------------------------------
  std::atomic<bool> send_scheduled_{false};
  std::atomic<bool> recv_blocked_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopped_ = false;  // guarded by stop_mu_
};

}  // namespace iov::engine
