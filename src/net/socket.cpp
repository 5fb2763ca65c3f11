#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace iov {

namespace {

sockaddr_in to_sockaddr(const NodeId& id) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(id.ip());
  addr.sin_port = htons(id.port());
  return addr;
}

NodeId from_sockaddr(const sockaddr_in& addr) {
  return NodeId(ntohl(addr.sin_addr.s_addr), ntohs(addr.sin_port));
}

bool set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int desired =
      nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, desired) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void suppress_sigpipe() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

std::optional<TcpConn> TcpConn::connect(const NodeId& dest, Duration timeout,
                                        int buffer_bytes) {
  suppress_sigpipe();
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return std::nullopt;
  if (buffer_bytes > 0) {
    // Before connect(): the handshake advertises the capped window.
    const int half = buffer_bytes / 2;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &half, sizeof(half));
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &half, sizeof(half));
  }
  // A blocking connect gives up after SO_SNDTIMEO; later sends wait as
  // long as they need.
  timeval tv{static_cast<time_t>(timeout / kNanosPerSec),
             static_cast<suseconds_t>(timeout % kNanosPerSec / 1000)};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const sockaddr_in addr = to_sockaddr(dest);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return std::nullopt;
  }
  tv = {};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  set_nodelay(fd.get());
  return TcpConn(std::move(fd));
}

std::optional<TcpConn> TcpConn::connect_start(const NodeId& dest,
                                              int buffer_bytes) {
  suppress_sigpipe();
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return std::nullopt;
  if (buffer_bytes > 0) {
    const int half = buffer_bytes / 2;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &half, sizeof(half));
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &half, sizeof(half));
  }
  if (!iov::set_nonblocking(fd.get(), true)) return std::nullopt;

  const sockaddr_in addr = to_sockaddr(dest);
  const int rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) return std::nullopt;
  return TcpConn(std::move(fd));
}

bool TcpConn::finish_connect() {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return false;
  }
  if (err != 0) {
    errno = err;
    return false;
  }
  set_nodelay(fd_.get());
  return true;
}

bool TcpConn::set_nonblocking(bool nonblocking) {
  return iov::set_nonblocking(fd_.get(), nonblocking);
}

bool TcpConn::write_all(const void* data, std::size_t n) {
  const u8* p = static_cast<const u8*>(data);
  while (n > 0) {
    const ssize_t written = ::send(fd_.get(), p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (written == 0) return false;
    p += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

bool TcpConn::writev_all(struct iovec* iov, int iovcnt, u64* syscalls) {
  while (iovcnt > 0) {
    msghdr hdr{};
    hdr.msg_iov = iov;
    hdr.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t written = ::sendmsg(fd_.get(), &hdr, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (syscalls != nullptr) ++*syscalls;
    if (written == 0) return false;
    // Advance past fully written iovecs, then trim the partial one.
    std::size_t left = static_cast<std::size_t>(written);
    while (iovcnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0 && left > 0) {
      iov->iov_base = static_cast<u8*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

long TcpConn::writev_some(const struct iovec* iov, int iovcnt,
                          u64* syscalls) {
  while (true) {
    msghdr hdr{};
    hdr.msg_iov = const_cast<struct iovec*>(iov);
    hdr.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t written = ::sendmsg(fd_.get(), &hdr, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      return -1;
    }
    if (syscalls != nullptr) ++*syscalls;
    return static_cast<long>(written);
  }
}

bool TcpConn::read_all(void* data, std::size_t n) {
  u8* p = static_cast<u8*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd_.get(), p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // orderly EOF mid-frame
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

long TcpConn::read_some(void* data, std::size_t n) {
  while (true) {
    const ssize_t got = ::recv(fd_.get(), data, n, 0);
    if (got < 0 && errno == EINTR) continue;
    return got;
  }
}

void TcpConn::shutdown_write() { ::shutdown(fd_.get(), SHUT_WR); }

void TcpConn::shutdown_both() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

void TcpConn::close() {
  // Shut down both directions first so threads blocked in recv/send on
  // this socket wake immediately, then release the descriptor.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  fd_.reset();
}

std::optional<NodeId> TcpConn::peer_addr() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return std::nullopt;
  }
  return from_sockaddr(addr);
}

std::optional<NodeId> TcpConn::local_addr() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return std::nullopt;
  }
  return from_sockaddr(addr);
}

void TcpConn::set_buffer_sizes(int bytes) {
  if (bytes <= 0 || !fd_.valid()) return;
  // The kernel doubles the requested value for bookkeeping; halve so the
  // effective budget is what the caller asked for.
  const int half = bytes / 2;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDBUF, &half, sizeof(half));
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVBUF, &half, sizeof(half));
}

std::optional<TcpListener> TcpListener::listen(u16 port, bool loopback_only,
                                               int backlog, int buffer_bytes) {
  suppress_sigpipe();
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return std::nullopt;

  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (buffer_bytes > 0) {
    // Accepted sockets inherit these, bounding their negotiated windows.
    const int half = buffer_bytes / 2;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &half, sizeof(half));
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &half, sizeof(half));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    IOV_LOG_ERROR("net") << "bind(" << port << ") failed: "
                         << std::strerror(errno);
    return std::nullopt;
  }
  if (::listen(fd.get(), backlog) != 0) return std::nullopt;
  if (!set_nonblocking(fd.get(), true)) return std::nullopt;

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return std::nullopt;
  }

  TcpListener out;
  out.fd_ = std::move(fd);
  out.port_ = ntohs(addr.sin_port);
  return out;
}

std::optional<TcpConn> TcpListener::accept() {
  while (true) {
    const int client =
        ::accept4(fd_.get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client >= 0) {
      Fd cfd(client);
      set_nodelay(client);
      return TcpConn(std::move(cfd));
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // EAGAIN (nothing pending) or a real error
  }
}

u64 raise_nofile_limit() {
  static const u64 cap = [] {
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return static_cast<u64>(0);
    if (lim.rlim_cur < lim.rlim_max) {
      lim.rlim_cur = lim.rlim_max;
      if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) {
        IOV_LOG_WARN("net") << "setrlimit(RLIMIT_NOFILE) failed: "
                            << std::strerror(errno)
                            << "; keeping soft limit " << lim.rlim_cur;
        ::getrlimit(RLIMIT_NOFILE, &lim);
      }
    }
    return static_cast<u64>(lim.rlim_cur);
  }();
  return cap;
}

bool TcpConn::connect_resolved() const {
  // The TCP state, read without consuming a pending SO_ERROR (which
  // finish_connect() still has to see).
  tcp_info info{};
  socklen_t len = sizeof(info);
  if (::getsockopt(fd_.get(), IPPROTO_TCP, TCP_INFO, &info, &len) != 0) {
    return false;  // EPOLLOUT resolves it
  }
  return info.tcpi_state != TCP_SYN_SENT;
}

}  // namespace iov
