#include "net/acceptor.h"

#include <sys/epoll.h>

#include <cerrno>


namespace iov {

namespace {
constexpr Duration kHelloTimeout = seconds(1.0);
/// Long enough for fds to free up, short enough that peers' connect
/// attempts (queued in the kernel backlog) aren't dropped.
constexpr Duration kAcceptBackoff = millis(100);
/// Control frames one readiness callback decodes before it yields the
/// worker to the other citizens on it (the rest follow right after).
constexpr int kFrameBudget = 64;
}  // namespace

bool Acceptor::listen(u16 port, bool loopback_only, int buffer_bytes) {
  auto listener = TcpListener::listen(port, loopback_only, 128, buffer_bytes);
  if (!listener) return false;
  listener_ = std::move(*listener);
  return true;
}

void Acceptor::start(reactor::Worker& worker) {
  worker_ = &worker;
  listening_ = worker_->add_fd(listener_.fd(), EPOLLIN, this);
}

void Acceptor::stop() {
  if (stopped_ || worker_ == nullptr) return;
  stopped_ = true;
  if (listening_) worker_->del_fd(listener_.fd());
  listening_ = false;
  listener_.close();
  while (!conns_.empty()) drop(*conns_.begin()->first);
  worker_->cancel_timers(this);
  worker_->cancel_deferred(this);  // destroys the retired connections
}

void Acceptor::accept_now() {
  accept_pending();
  std::vector<Conn*> all;
  for (const auto& [raw, c] : conns_) all.push_back(raw);
  for (Conn* raw : all) {
    if (conns_.count(raw) > 0 && !raw->reader) gather_hello(*raw);
  }
}

void Acceptor::accept_pending() {
  while (listening_) {
    errno = 0;
    auto conn = listener_.accept();
    if (!conn) {
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: not fatal. Retry once links freed some.
        worker_->del_fd(listener_.fd());
        listening_ = false;
        worker_->schedule_after(kAcceptBackoff, this, [this] {
          listening_ = worker_->add_fd(listener_.fd(), EPOLLIN, this);
          accept_pending();
        });
        owner_.on_accept_exhausted();
      }
      return;
    }
    auto owned = std::make_unique<Conn>(*this, std::move(*conn));
    Conn* raw = owned.get();
    if (!worker_->add_fd(raw->conn.fd(), EPOLLIN, raw)) continue;  // drop
    conns_.emplace(raw, std::move(owned));
    // A peer that never completes its hello cannot hold the fd forever.
    worker_->schedule_after(kHelloTimeout, raw, [this, raw] { drop(*raw); });
    gather_hello(*raw);  // the hello may have arrived with the SYN
  }
}

void Acceptor::gather_hello(Conn& c) {
  while (c.got < kHelloBytes) {
    const long n =
        c.conn.read_some(c.hello.data() + c.got, kHelloBytes - c.got);
    if (n > 0) {
      c.got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    drop(c);  // EOF or error before a complete hello
    return;
  }
  worker_->cancel_timers(&c);  // the hello deadline
  const auto hello = decode_hello(c.hello.data());
  if (hello) {
    worker_->del_fd(c.conn.fd());  // before the owner may register it
    owner_.on_hello(*hello, c.conn);
  }
  if (hello && c.conn.valid() && hello->kind == ConnKind::kControl &&
      worker_->add_fd(c.conn.fd(), EPOLLIN, &c)) {
    c.reader.emplace(c.conn, pool_);
    read_frames(c);
  } else {
    drop(c);  // a bad hello, a socket the owner took, or one not kept
  }
}

void Acceptor::read_frames(Conn& c) {
  for (int budget = kFrameBudget; budget > 0; --budget) {
    MsgPtr m = c.reader->next();
    if (!m) {
      if (!c.reader->would_block()) drop(c);  // EOF, error, corrupt
      return;
    }
    owner_.on_control_frame(std::move(m));
  }
  worker_->defer(&c, [this, &c] { read_frames(c); });
}

void Acceptor::drop(Conn& c) {
  const auto it = conns_.find(&c);
  if (it == conns_.end()) return;
  if (c.got < kHelloBytes) worker_->cancel_timers(&c);  // the hello deadline
  worker_->cancel_deferred(&c);
  if (c.conn.valid()) worker_->del_fd(c.conn.fd());  // closed with `c`
  worker_->retire(this, std::move(it->second));
  conns_.erase(it);
}

}  // namespace iov
