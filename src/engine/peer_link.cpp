#include "engine/peer_link.h"

#include <sys/epoll.h>

#include <algorithm>
#include <array>

#include "obs/metric_names.h"

namespace iov::engine {

namespace {
obs::Labels link_labels(const NodeId& peer, const char* dir) {
  return {{"peer", peer.to_string()}, {"dir", dir}};
}

/// Bytes one receive pump call delivers before it yields (see pump_recv).
constexpr std::size_t kRecvBudgetBytes = 256 * 1024;

// Bucket bounds for the flush/refill batch-size histograms (messages per
// syscall batch, not seconds).
const std::vector<double>& flush_bounds() {
  static const std::vector<double> kBounds{1, 2, 4, 8, 16, 32, 64, 128};
  return kBounds;
}
}  // namespace

PeerLink::PeerLink(NodeId self, NodeId peer, TcpConn conn,
                   const EngineConfig& config, BandwidthEmulator& bandwidth,
                   const Clock& clock, LinkOwner& owner,
                   obs::MetricsRegistry& metrics, SlabPool& pool,
                   reactor::Worker& worker, bool dial_pending, ConnKind kind)
    : self_(self),
      peer_(peer),
      conn_(std::move(conn)),
      bandwidth_(bandwidth),
      clock_(clock),
      owner_(owner),
      pool_(pool),
      worker_(worker),
      dial_pending_(dial_pending),
      kind_(kind),
      connect_timeout_(config.connect_timeout),
      // A control link hands every message to its owner, so its receive
      // buffer stays empty.
      recv_buffer_(kind == ConnKind::kControl ? 1 : config.recv_buffer_msgs),
      send_buffer_(kind == ConnKind::kControl ? kControlLinkMsgs
                                              : config.send_buffer_msgs),
      up_bytes_(metrics.counter(obs::names::kLinkBytesTotal,
                                link_labels(peer, "up"))),
      up_msgs_(metrics.counter(obs::names::kLinkMessagesTotal,
                               link_labels(peer, "up"))),
      down_bytes_(metrics.counter(obs::names::kLinkBytesTotal,
                                  link_labels(peer, "down"))),
      down_msgs_(metrics.counter(obs::names::kLinkMessagesTotal,
                                 link_labels(peer, "down"))),
      down_lost_bytes_(metrics.counter(obs::names::kLinkLostBytesTotal,
                                       link_labels(peer, "down"))),
      down_lost_msgs_(metrics.counter(obs::names::kLinkLostMessagesTotal,
                                      link_labels(peer, "down"))),
      recv_depth_(metrics.gauge(obs::names::kLinkQueueDepth,
                                link_labels(peer, "up"))),
      send_depth_(metrics.gauge(obs::names::kLinkQueueDepth,
                                link_labels(peer, "down"))),
      recv_throttle_wait_(metrics.histogram(obs::names::kThrottleWaitSeconds,
                                            link_labels(peer, "up"))),
      send_throttle_wait_(metrics.histogram(obs::names::kThrottleWaitSeconds,
                                            link_labels(peer, "down"))),
      up_syscalls_(metrics.counter(obs::names::kLinkSyscallsTotal,
                                   link_labels(peer, "up"))),
      down_syscalls_(metrics.counter(obs::names::kLinkSyscallsTotal,
                                     link_labels(peer, "down"))),
      up_flush_msgs_(metrics.histogram(obs::names::kLinkFlushMsgs,
                                       link_labels(peer, "up"),
                                       flush_bounds())),
      down_flush_msgs_(metrics.histogram(obs::names::kLinkFlushMsgs,
                                         link_labels(peer, "down"),
                                         flush_bounds())),
      loop_lag_(metrics.histogram(obs::names::kReactorLoopLagSeconds)),
      loss_rng_((static_cast<u64>(self.ip()) << 32) ^
                (static_cast<u64>(peer.ip()) << 16) ^ peer.port()),
      reader_(conn_, pool),
      awaiting_first_frame_(dial_pending && kind == ConnKind::kPersistent) {
  metrics.gauge(obs::names::kLinkQueueCapacity, link_labels(peer, "up"))
      .set(static_cast<i64>(recv_buffer_.capacity()));
  metrics.gauge(obs::names::kLinkQueueCapacity, link_labels(peer, "down"))
      .set(static_cast<i64>(send_buffer_.capacity()));
}

PeerLink::~PeerLink() { stop(); }

// --- Switch-facing API ------------------------------------------------------

void PeerLink::stop() {
  if (detached_) return;
  detach();
  // Shutting down (not closing) the socket sends the peer its EOF at once;
  // the descriptor is released with the link.
  conn_.shutdown_both();
}

void PeerLink::notify_send() {
  if (send_deferred_ || detached_) return;
  send_deferred_ = true;
  worker_.defer(this, [this] {
    send_deferred_ = false;
    pump_send();
  });
}

void PeerLink::notify_recv_space() {
  if (!recv_full_ || resume_deferred_ || detached_) return;
  resume_deferred_ = true;
  worker_.defer(this, [this] {
    resume_deferred_ = false;
    resume_recv();
  });
}

void PeerLink::set_send_loss(double probability) {
  if (probability < 0.0) probability = 0.0;
  if (probability > 1.0) probability = 1.0;
  send_loss_ppm_ = static_cast<u32>(probability * 1e6);
}

void PeerLink::update_queue_gauges() {
  recv_depth_.set(static_cast<i64>(recv_buffer_.size()));
  send_depth_.set(static_cast<i64>(send_buffer_.size()));
}

std::vector<MsgPtr> PeerLink::take_unsent() {
  std::vector<MsgPtr> out;
  for (auto& m : wire_msgs_) out.push_back(std::move(m));
  wire_msgs_.clear();
  wire_headers_.clear();
  wire_off_ = 0;
  for (auto& m : pending_) out.push_back(std::move(m));
  pending_.clear();
  for (std::size_t i = popped_idx_; i < popped_.size(); ++i) {
    if (popped_[i]) out.push_back(std::move(popped_[i]));
  }
  popped_.clear();
  popped_idx_ = 0;
  send_buffer_.try_pop_batch(out, send_buffer_.size());
  return out;
}

void PeerLink::take_over(PeerLink& old) {
  // Straight onto the wire queue: these already left a send buffer once.
  pending_ = old.take_unsent();
  stage_pending();
  up_meter_.absorb(old.up_meter_);
  down_meter_.absorb(old.down_meter_);
}

void PeerLink::drain_crossing(TcpConn old) {
  if (detached_ || predecessor_) return;  // one crossing per peer at most
  predecessor_ = std::make_unique<Predecessor>(*this, std::move(old), pool_);
  update_interest();
}

// --- State machine ----------------------------------------------------------

void PeerLink::start() {
  if (detached_) return;
  const u32 first_interest = dial_pending_ ? EPOLLOUT : EPOLLIN;
  if (!conn_.valid() || !worker_.add_fd(fd(), first_interest, this)) {
    worker_.defer(this, [this] { fail(MsgType::kPeerFailed); });
    return;
  }
  registered_ = true;
  interest_ = first_interest;
  if (dial_pending_) {
    state_ = State::kConnecting;
    // A loopback handshake has usually finished already: send the hello
    // right after the current pass instead of a loop iteration later.
    worker_.defer(this, [this] {
      if (state_ == State::kConnecting && conn_.connect_resolved()) {
        connect_ready();
      }
    });
    worker_.schedule_after(
        connect_timeout_, this,
        [this] {
          if (!detached_ && state_ == State::kConnecting) {
            errno = ETIMEDOUT;
            fail(MsgType::kPeerFailed);
          }
        },
        &loop_lag_);
  } else {
    // Accepted socket, hello already consumed by the Acceptor: go straight
    // to established. Frames may have arrived with the hello, and the
    // switch may have queued sends already.
    state_ = State::kEstablished;
    notify_send();
    worker_.defer(this, [this] { pump_recv(); });
  }
}

void PeerLink::connect_ready() {
  worker_.cancel_timers(this);  // the connect deadline
  if (!conn_.finish_connect()) {
    fail(MsgType::kPeerFailed);
    return;
  }
  state_ = State::kHandshaking;
  const auto hello = encode_hello(Hello{kind_, self_});
  raw_head_.assign(hello.begin(), hello.end());
  raw_off_ = 0;
  update_interest();
  if (flush_wire() && state_ == State::kEstablished) {
    pump_send();
    pump_recv();
  }
}

void PeerLink::on_event(u32 events) {
  if (detached_) return;
  if (state_ == State::kConnecting) {
    // EPOLLOUT (or ERR/HUP) resolves the pending connect either way.
    connect_ready();
    return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 &&
      (reading_blocked() || predecessor_) && !write_blocked_) {
    // A dead socket reports ERR/HUP on every epoll_wait even with an empty
    // interest mask; while parked (pacing timer, full buffer, predecessor
    // still draining) we cannot consume the error, so leave the epoll set
    // entirely to avoid a busy loop. update_interest() re-adds the fd on
    // resume and the resumed read then observes the error.
    if (registered_ && !suspended_) {
      worker_.del_fd(fd());
      suspended_ = true;
    }
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (flush_wire() && state_ == State::kEstablished) pump_send();
    if (detached_) return;
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) pump_recv();
}

// --- Send path --------------------------------------------------------------

void PeerLink::pump_send() {
  if (detached_ || state_ != State::kEstablished) return;
  if (!flush_wire()) return;  // backlogged (EPOLLOUT armed) or dead
  if (send_paced_) return;    // the pacing timer owns progress
  const bool emulated =
      kind_ == ConnKind::kPersistent && bandwidth_.limited();
  bool popped_any = false;
  while (!detached_) {
    if (popped_idx_ >= popped_.size()) {
      popped_.clear();
      popped_idx_ = 0;
      if (send_buffer_.try_pop_batch(popped_, kMaxWireBatch) == 0) break;
      popped_any = true;
      send_depth_.set(static_cast<i64>(send_buffer_.size()));
    }
    while (popped_idx_ < popped_.size()) {
      MsgPtr& m = popped_[popped_idx_];
      if (send_loss_ppm_ > 0 && loss_rng_.below(1000000) < send_loss_ppm_) {
        // Injected wire loss (kSetLoss): the message vanishes before
        // pacing, accounted like any other sender-side drop.
        count_send_loss(*m);
        m.reset();
        ++popped_idx_;
        continue;
      }
      const Duration wait =
          emulated ? bandwidth_.acquire_send(peer_, m->wire_size(),
                                             clock_.now())
                   : 0;
      if (wait > 0) {
        // Pacing boundary: everything accumulated so far cleared the
        // token bucket with zero wait, so flush it before the emulated
        // sleep — batching never shifts a message past its departure
        // time. The sleep itself becomes a reactor timer; the message
        // stays parked in popped_ until it fires.
        stage_pending();
        flush_wire();
        if (detached_) return;
        send_throttle_wait_.observe_duration(wait);
        send_paced_ = true;
        worker_.schedule_after(
            wait, this, [this] { on_send_pace_done(); }, &loop_lag_);
        if (popped_any) owner_.on_link_ready(*this);
        return;
      }
      pending_.push_back(std::move(m));
      ++popped_idx_;
    }
    stage_pending();
    // EAGAIN leaves EPOLLOUT armed, and the EPOLLOUT that drains the wire
    // re-enters this pump, so the rest of the send buffer is never left
    // without a pending wakeup. An error has already detached the link.
    if (!flush_wire()) break;
  }
  if (detached_) return;
  if (popped_any) owner_.on_link_ready(*this);  // send space freed
}

void PeerLink::on_send_pace_done() {
  send_paced_ = false;
  if (detached_) return;
  if (popped_idx_ < popped_.size() && popped_[popped_idx_]) {
    pending_.push_back(std::move(popped_[popped_idx_]));
    ++popped_idx_;
  }
  pump_send();
}

void PeerLink::stage_pending() {
  if (pending_.empty()) return;
  down_flush_msgs_.observe(static_cast<double>(pending_.size()));
  for (auto& m : pending_) {
    wire_headers_.push_back(codec::encode_header(*m));
    wire_msgs_.push_back(std::move(m));
  }
  pending_.clear();
}

bool PeerLink::flush_wire() {
  if (detached_) return false;
  // The raw handshake bytes precede any frame.
  while (raw_off_ < raw_head_.size()) {
    iovec v{raw_head_.data() + raw_off_, raw_head_.size() - raw_off_};
    const long n = conn_.writev_some(&v, 1);
    if (n == 0) {
      write_blocked_ = true;
      update_interest();
      return false;
    }
    if (n < 0) {
      fail(MsgType::kPeerFailed);  // handshake never made it out
      return false;
    }
    raw_off_ += static_cast<std::size_t>(n);
  }
  if (state_ == State::kHandshaking) {
    state_ = State::kEstablished;
    raw_head_.clear();
    raw_off_ = 0;
  }
  bool drained = true;
  while (!wire_msgs_.empty()) {
    // Same shape as write_batch: up to kMaxWireBatch frames, two iovecs
    // each, one sendmsg. Only the front frame can be partial.
    std::array<iovec, 2 * kMaxWireBatch> iov;
    int iovcnt = 0;
    const std::size_t take = std::min(wire_msgs_.size(), kMaxWireBatch);
    std::size_t skip = wire_off_;
    for (std::size_t i = 0; i < take; ++i) {
      const Msg& m = *wire_msgs_[i];
      const u8* hdr = wire_headers_[i].data();
      std::size_t hdr_len = wire_headers_[i].size();
      const u8* pay = m.payload_size() > 0 ? m.payload()->data() : nullptr;
      std::size_t pay_len = m.payload_size();
      if (skip > 0) {
        const std::size_t h = std::min(skip, hdr_len);
        hdr += h;
        hdr_len -= h;
        skip -= h;
        const std::size_t p = std::min(skip, pay_len);
        pay += p;
        pay_len -= p;
        skip -= p;
      }
      if (hdr_len > 0) {
        iov[iovcnt++] = {const_cast<u8*>(hdr), hdr_len};
      }
      if (pay_len > 0) {
        iov[iovcnt++] = {const_cast<u8*>(pay), pay_len};
      }
    }
    u64 sys = 0;
    const long n = conn_.writev_some(iov.data(), iovcnt, &sys);
    down_syscalls_.inc(sys);
    if (n == 0) {
      write_blocked_ = true;
      update_interest();
      drained = false;
      break;
    }
    if (n < 0) {
      fail(MsgType::kSendFailed);
      return false;
    }
    wire_off_ += static_cast<std::size_t>(n);
    const TimePoint now = clock_.now();
    while (!wire_msgs_.empty()) {
      const std::size_t frame = wire_msgs_.front()->wire_size();
      if (wire_off_ < frame) break;
      wire_off_ -= frame;
      down_meter_.record(frame, now);
      down_bytes_.inc(frame);
      down_msgs_.inc();
      wire_msgs_.pop_front();
      wire_headers_.pop_front();
    }
  }
  if (drained && write_blocked_) {
    write_blocked_ = false;
    update_interest();
  }
  return drained;
}

// --- Receive path -----------------------------------------------------------

void PeerLink::pump_recv() {
  if (detached_ || reading_blocked()) return;
  // About a socket buffer per call: then the switch pass (and the sends
  // it feeds) runs before this reader continues, so a node forwards while
  // its upstream is still streaming.
  std::size_t budget = kRecvBudgetBytes;
  // One clock read per call, taken when the first message is routed: it
  // stamps every message this call routes (meters, switch latency).
  TimePoint now = -1;
  while (!detached_) {
    MsgPtr m;
    if (predecessor_) {
      m = predecessor_->reader.next();
      if (!m) {
        flush_inbound();
        if (detached_ || predecessor_->reader.would_block()) return;
        // EOF: the crossing connection is done. This may run inside the
        // predecessor's own on_event; nothing touches it after the reset.
        if (predecessor_->registered) worker_.del_fd(predecessor_->conn.fd());
        predecessor_.reset();
        update_interest();
        continue;
      }
    } else if (first_frame_) {
      m = std::move(first_frame_);
    } else {
      if (state_ == State::kConnecting) return;
      m = reader_.next();
      const u64 s = reader_.syscalls();
      if (s != seen_syscalls_) {
        // The reader went back to the socket, so the frames decoded since
        // the previous refill formed one bulk batch.
        if (refill_msgs_ > 0) {
          up_flush_msgs_.observe(static_cast<double>(refill_msgs_));
        }
        up_syscalls_.inc(s - seen_syscalls_);
        seen_syscalls_ = s;
        refill_msgs_ = 0;
      }
      if (!m) {
        flush_inbound();  // deliver what already decoded before any verdict
        if (reader_.would_block()) return;  // EPOLLIN resumes the pump
        fail(MsgType::kPeerFailed);         // EOF, socket error, corrupt frame
        return;
      }
      ++refill_msgs_;
      if (awaiting_first_frame_) {
        // A crossing dial from the peer reached our listener before this
        // frame left the peer; let the owner attach it, and deliver its
        // frames first.
        awaiting_first_frame_ = false;
        owner_.on_first_frame(*this);
        if (detached_) return;
        if (predecessor_) {
          first_frame_ = std::move(m);
          continue;
        }
      }
    }

    // Download-side bandwidth emulation: pace before the message becomes
    // visible. Instead of sleeping we park the message and stop reading;
    // the kernel receive window fills and TCP pushes back on the sender —
    // exactly the "back pressure" of §2.4. A non-zero wait is a pacing
    // boundary: everything decoded so far becomes visible before the
    // emulated delay. With no limit set the emulator is skipped.
    const Duration wait =
        kind_ == ConnKind::kPersistent && bandwidth_.limited()
            ? bandwidth_.acquire_recv(peer_, m->wire_size(), clock_.now())
            : 0;
    if (wait > 0) {
      flush_inbound();
      if (detached_) return;
      recv_throttle_wait_.observe_duration(wait);
      paced_ = std::move(m);
      update_interest();
      worker_.schedule_after(
          wait, this, [this] { on_recv_pace_done(); }, &loop_lag_);
      return;
    }
    const std::size_t size = m->wire_size();
    if (now < 0) now = clock_.now();
    account_and_route(std::move(m), now);
    if (detached_ || reading_blocked()) return;
    if (size >= budget) {
      flush_inbound();
      if (!resume_deferred_ && !detached_ && !reading_blocked()) {
        resume_deferred_ = true;
        worker_.defer(this, [this] {
          resume_deferred_ = false;
          resume_recv();
        });
      }
      return;
    }
    budget -= size;
  }
}

void PeerLink::on_recv_pace_done() {
  if (detached_ || !paced_) return;
  MsgPtr m = std::move(paced_);
  account_and_route(std::move(m), clock_.now());
  if (detached_ || reading_blocked()) return;
  update_interest();
  pump_recv();
}

void PeerLink::resume_recv() {
  if (detached_) return;
  if (!flush_inbound()) return;  // still full: stays parked
  if (held_ctrl_) owner_.on_link_message(*this, std::move(held_ctrl_));
  if (detached_ || paced_) return;  // the pacing timer continues the pump
  update_interest();
  pump_recv();
}

void PeerLink::account_and_route(MsgPtr m, TimePoint now) {
  up_meter_.record(m->wire_size(), now);
  up_bytes_.inc(m->wire_size());
  up_msgs_.inc();
  if (m->type() == MsgType::kData && kind_ == ConnKind::kPersistent) {
    inbound_.push_back(Inbound{std::move(m), now});
    // Keep accumulating only while the reader can hand out more frames
    // without going back to the socket; flush at every syscall boundary
    // so the switch never waits on delivered-but-unpushed messages.
    if (inbound_.size() >= kMaxWireBatch || !reader_.buffered()) {
      flush_inbound();
    }
  } else {
    // Protocol/control traffic bypasses the data buffers so it cannot be
    // starved by a congested data plane (flush first to preserve arrival
    // order between the two planes; if the flush parks, hold the control
    // message so order is still preserved on resume).
    if (flush_inbound()) {
      owner_.on_link_message(*this, std::move(m));
    } else {
      held_ctrl_ = std::move(m);
    }
  }
}

bool PeerLink::flush_inbound() {
  if (!inbound_.empty()) {
    const std::size_t pushed = recv_buffer_.try_push_batch(inbound_);
    if (pushed > 0) {
      inbound_.erase(inbound_.begin(),
                     inbound_.begin() + static_cast<std::ptrdiff_t>(pushed));
      recv_depth_.set(static_cast<i64>(recv_buffer_.size()));
      owner_.on_link_ready(*this);
    }
  }
  const bool full = !inbound_.empty();
  if (full != recv_full_) {
    // Full: park until the switch drains the buffer (notify_recv_space).
    recv_full_ = full;
    update_interest();
  }
  return !full;
}

// --- Failure and teardown ---------------------------------------------------

void PeerLink::fail(MsgType kind) {
  if (detached_) return;
  detach();
  owner_.on_link_failed(*this, kind);
}

void PeerLink::detach() {
  if (detached_) return;
  detached_ = true;
  if (registered_ && !suspended_) worker_.del_fd(fd());
  registered_ = false;
  suspended_ = false;
  if (predecessor_ && predecessor_->registered) {
    worker_.del_fd(predecessor_->conn.fd());
  }
  predecessor_.reset();
  worker_.cancel_timers(this);
  worker_.cancel_deferred(this);
  // Account every undelivered egress message as lost ("the number of
  // bytes (or messages) lost due to failures").
  for (const auto& m : take_unsent()) count_send_loss(*m);
  inbound_.clear();
  first_frame_.reset();
  paced_.reset();
  held_ctrl_.reset();
  state_ = State::kDraining;
}

void PeerLink::update_interest() {
  if (detached_) return;
  if (predecessor_) {
    // The predecessor reads whenever the link may consume input.
    const bool want = !reading_blocked();
    if (want != predecessor_->registered) {
      if (want) {
        predecessor_->registered = worker_.add_fd(predecessor_->conn.fd(),
                                                  EPOLLIN, predecessor_.get());
      } else {
        worker_.del_fd(predecessor_->conn.fd());
        predecessor_->registered = false;
      }
    }
  }
  if (!registered_) return;
  u32 want = 0;
  if (state_ == State::kConnecting) {
    want = EPOLLOUT;
  } else {
    if (!reading_blocked() && !predecessor_) want |= EPOLLIN;
    if (write_blocked_) want |= EPOLLOUT;
  }
  if (suspended_) {
    if (want == 0) return;
    if (worker_.add_fd(fd(), want, this)) {
      suspended_ = false;
      interest_ = want;
    }
    return;
  }
  if (want != interest_) {
    worker_.mod_fd(fd(), want);
    interest_ = want;
  }
}

void PeerLink::count_send_loss(const Msg& m) {
  down_meter_.record_loss(m.wire_size());
  down_lost_bytes_.inc(m.wire_size());
  down_lost_msgs_.inc();
}

}  // namespace iov::engine
