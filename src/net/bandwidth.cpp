#include "net/bandwidth.h"

#include <algorithm>

namespace iov {

void BandwidthEmulator::configure(const BandwidthSpec& spec) {
  total_.set_rate(spec.node_total);
  up_.set_rate(spec.node_up);
  down_.set_rate(spec.node_down);
}

void BandwidthEmulator::set_link(std::unordered_map<NodeId, TokenBucket>& links,
                                 const NodeId& peer, double bytes_per_sec) {
  // Erasing an unlimited bucket loses nothing: one that becomes limited
  // again starts with a full burst either way.
  if (!(bytes_per_sec > 0.0)) {
    links.erase(peer);
  } else {
    links[peer].set_rate(bytes_per_sec);
  }
}

void BandwidthEmulator::set_link_up(const NodeId& peer, double bytes_per_sec) {
  set_link(link_up_, peer, bytes_per_sec);
}

void BandwidthEmulator::set_link_down(const NodeId& peer,
                                      double bytes_per_sec) {
  set_link(link_down_, peer, bytes_per_sec);
}

Duration BandwidthEmulator::acquire_send(const NodeId& peer,
                                         std::size_t bytes, TimePoint now) {
  Duration wait = total_.acquire(bytes, now);
  wait = std::max(wait, up_.acquire(bytes, now));
  const auto link = link_up_.find(peer);
  if (link != link_up_.end()) {
    wait = std::max(wait, link->second.acquire(bytes, now));
  }
  return wait;
}

Duration BandwidthEmulator::acquire_recv(const NodeId& peer,
                                         std::size_t bytes, TimePoint now) {
  Duration wait = total_.acquire(bytes, now);
  wait = std::max(wait, down_.acquire(bytes, now));
  const auto link = link_down_.find(peer);
  if (link != link_down_.end()) {
    wait = std::max(wait, link->second.acquire(bytes, now));
  }
  return wait;
}

}  // namespace iov
