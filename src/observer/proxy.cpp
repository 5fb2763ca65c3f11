#include "observer/proxy.h"

#include <poll.h>

#include "common/clock.h"
#include "common/logging.h"

namespace iov::observer {

namespace {
constexpr Duration kPollTimeout = millis(50);
constexpr Duration kHelloTimeout = seconds(1.0);
constexpr Duration kConnectTimeout = millis(500);
}  // namespace

Proxy::Proxy(ProxyConfig config) : config_(std::move(config)) {}

Proxy::~Proxy() {
  stop();
  join();
}

bool Proxy::start() {
  suppress_sigpipe();
  auto listener = TcpListener::listen(config_.port, config_.loopback_only);
  if (!listener) return false;
  listener_ = std::move(*listener);
  self_ = NodeId::loopback(listener_.port());
  thread_ = std::thread([this] { proxy_main(); });
  return true;
}

void Proxy::stop() { stop_requested_.store(true, std::memory_order_release); }

void Proxy::join() {
  if (thread_.joinable()) thread_.join();
}

void Proxy::proxy_main() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& conn : inbound_) {
      fds.push_back({conn->fd(), POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(kPollTimeout / kNanosPerMilli));
    if (rc <= 0) continue;

    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < inbound_.size(); ++i) {
      if (!(fds[i + 1].revents & (POLLIN | POLLHUP))) continue;
      if (MsgPtr m = read_msg(*inbound_[i])) {
        if (relay(m)) relayed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        dead.push_back(i);
      }
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      inbound_.erase(inbound_.begin() + static_cast<std::ptrdiff_t>(*it));
    }

    if (fds[0].revents & POLLIN) handle_accept();
  }
  listener_.close();
  inbound_.clear();
  if (upstream_) upstream_->close();
}

void Proxy::handle_accept() {
  while (auto conn = listener_.accept()) {
    conn->set_nonblocking(false);  // this daemon reads with blocking calls
    if (!wait_readable(conn->fd(), kHelloTimeout)) continue;
    const auto hello = read_hello(*conn);
    if (!hello || hello->kind != ConnKind::kControl) continue;
    inbound_.push_back(std::make_unique<TcpConn>(std::move(*conn)));
  }
}

bool Proxy::relay(const MsgPtr& m) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!upstream_) {
      auto conn = TcpConn::connect(config_.observer, kConnectTimeout);
      if (!conn) return false;
      if (!write_hello(*conn, Hello{ConnKind::kControl, self_})) return false;
      upstream_ = std::move(*conn);
    }
    if (write_msg(*upstream_, *m)) return true;
    upstream_.reset();  // broken: redial once
  }
  return false;
}

}  // namespace iov::observer
