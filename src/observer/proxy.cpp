#include "observer/proxy.h"

namespace iov::observer {

Proxy::Proxy(ProxyConfig config) : config_(std::move(config)) {}

Proxy::~Proxy() { stop(); }

bool Proxy::start() {
  if (!acceptor_.listen(config_.port, config_.loopback_only)) return false;
  self_ = NodeId::loopback(acceptor_.port());
  worker_.call([this] { acceptor_.start(worker_); });
  return true;
}

void Proxy::stop() {
  worker_.call([this] {
    acceptor_.stop();
    upstream_.reset();
    worker_.cancel_deferred(this);  // destroys a retired upstream link
  });
}

void Proxy::on_control_frame(MsgPtr m) {
  if (!upstream_) {
    // Dialed like an engine's observer link, without blocking; a failed
    // dial is retried by the next frame.
    auto conn = TcpConn::connect_start(config_.observer);
    if (!conn) return;
    upstream_ = std::make_unique<engine::PeerLink>(
        self_, config_.observer, std::move(*conn), engine::EngineConfig{},
        bandwidth_, RealClock::instance(), *this, link_metrics_, slab_pool_,
        worker_, /*dial_pending=*/true, ConnKind::kControl);
    upstream_->start();
  }
  if (!upstream_->try_send(std::move(m))) return;
  relayed_.fetch_add(1, std::memory_order_relaxed);
}

void Proxy::on_link_failed(engine::PeerLink& link, MsgType /*kind*/) {
  if (&link == upstream_.get()) worker_.retire(this, std::move(upstream_));
}

}  // namespace iov::observer
