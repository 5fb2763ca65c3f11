// RAII socket primitives. All higher layers (framing, peer links, the
// engine, the observer) hold sockets only through these types, so
// descriptors can never leak, and all error paths reduce to "the call
// returned false / nullopt and errno says why".
//
// Engines, the observer and the proxy drive non-blocking sockets from
// the epoll reactor. The blocking calls (connect, write_all, read_all,
// writev_all) serve drivers, tools and tests that play a peer.
#pragma once

#include <sys/uio.h>

#include <optional>
#include <utility>

#include "common/node_id.h"
#include "common/types.h"

namespace iov {

/// Move-only owner of a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Disables SIGPIPE delivery for the process; writing to a closed peer
/// then surfaces as EPIPE from send(), which the engine treats as a link
/// failure (paper §2.2, "abnormal signals caught by the engine, such as
/// the Broken Pipe signal"). Safe to call repeatedly.
void suppress_sigpipe();

/// A connected TCP stream.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(Fd fd) : fd_(std::move(fd)) {}

  /// Connects to `dest` with a timeout; nullopt on failure. The resulting
  /// socket is blocking with TCP_NODELAY set (the engine frames its own
  /// messages; Nagle only adds latency). `buffer_bytes` > 0 caps the
  /// kernel socket buffers *before* the handshake, so the negotiated TCP
  /// window is genuinely small (see set_buffer_sizes).
  static std::optional<TcpConn> connect(const NodeId& dest, Duration timeout,
                                        int buffer_bytes = 0);

  /// Begins a non-blocking connect to `dest` and returns immediately with
  /// the connect still in flight (the reactor path). The socket stays
  /// non-blocking. The caller waits for writability (EPOLLOUT), then
  /// calls finish_connect() to learn the outcome. nullopt only on
  /// immediate local failure (no route, fd exhaustion — errno preserved).
  static std::optional<TcpConn> connect_start(const NodeId& dest,
                                              int buffer_bytes = 0);

  /// Resolves a connect_start() once the socket reported writable:
  /// checks SO_ERROR and sets TCP_NODELAY. False means the connect
  /// failed (errno holds the reason).
  bool finish_connect();

  /// True when a connect_start() has already resolved (the socket is
  /// writable or in error), checked without waiting. On loopback the
  /// handshake usually completes inside connect() itself.
  bool connect_resolved() const;

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// Switches the socket between blocking and non-blocking mode. The
  /// reactor drives peer-link sockets non-blocking.
  bool set_nonblocking(bool nonblocking);

  /// Writes exactly `n` bytes; false on any error (errno preserved).
  /// Retries on EINTR. Never raises SIGPIPE.
  bool write_all(const void* data, std::size_t n);

  /// Scatter-gather write: sends every byte described by `iov[0..iovcnt)`
  /// in as few syscalls as the kernel allows (one, barring partial
  /// writes). The iovec array is clobbered while advancing over partial
  /// writes. `syscalls`, when non-null, is incremented once per sendmsg
  /// issued. False on any error; retries on EINTR; never raises SIGPIPE.
  bool writev_all(struct iovec* iov, int iovcnt, u64* syscalls = nullptr);

  /// One sendmsg over `iov[0..iovcnt)` on a non-blocking socket: returns
  /// the bytes accepted by the kernel (possibly a partial write), 0 when
  /// the socket would block (EAGAIN — arm EPOLLOUT and retry later), or
  /// -1 on a real error. Retries on EINTR; never raises SIGPIPE.
  /// `syscalls`, when non-null, counts the sendmsg issued.
  long writev_some(const struct iovec* iov, int iovcnt,
                   u64* syscalls = nullptr);

  /// Reads exactly `n` bytes; false on EOF or error.
  bool read_all(void* data, std::size_t n);

  /// Reads up to `n` bytes; returns bytes read, 0 on orderly EOF, -1 on
  /// error.
  long read_some(void* data, std::size_t n);

  /// Half-closes the write side, prompting EOF at the peer.
  void shutdown_write();

  /// Shuts down both directions without releasing the descriptor; any
  /// thread blocked in read/write on this socket wakes with an error.
  void shutdown_both();

  /// Closes the socket entirely; pending blocking operations on other
  /// threads fail promptly.
  void close();

  /// Remote address as reported by the kernel.
  std::optional<NodeId> peer_addr() const;

  /// Local address (useful when connecting from an ephemeral port).
  std::optional<NodeId> local_addr() const;

  /// Caps SO_SNDBUF/SO_RCVBUF at `bytes` each. Modern kernels auto-tune
  /// socket buffers into the megabytes, which hides TCP back-pressure
  /// for tens of seconds at emulated-KB/s rates; the engine optionally
  /// pins them small so the paper's back-pressure dynamics (Fig 6) play
  /// out on the paper's timescale.
  void set_buffer_sizes(int bytes);

 private:
  Fd fd_;
};

/// A listening TCP socket bound to 127.0.0.1 (virtualized nodes) or
/// 0.0.0.0.
class TcpListener {
 public:
  TcpListener() = default;

  /// Binds and listens. `port` 0 picks an ephemeral port ("otherwise, the
  /// engine chooses one of the available ports", §2.2). `loopback_only`
  /// restricts to 127.0.0.1. `buffer_bytes` > 0 caps the kernel socket
  /// buffers on the listening socket, which accepted connections inherit
  /// — necessary for the cap to actually bound the TCP window.
  static std::optional<TcpListener> listen(u16 port, bool loopback_only = true,
                                           int backlog = 128,
                                           int buffer_bytes = 0);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// The bound port (resolved when an ephemeral port was requested).
  u16 port() const { return port_; }

  /// Accepts one pending connection; nullopt if none is pending (the
  /// listener is non-blocking) or on error. The accepted socket is
  /// non-blocking with TCP_NODELAY set.
  std::optional<TcpConn> accept();

  void close() { fd_.reset(); }

 private:
  Fd fd_;
  u16 port_ = 0;
};

/// Raises RLIMIT_NOFILE's soft limit to the hard limit (a process hosting
/// a thousand nodes needs fds for every link, and the default soft cap is
/// often 1024). Returns the resulting soft limit, or 0 on failure. Safe
/// to call repeatedly; only the first call does the work.
u64 raise_nofile_limit();

}  // namespace iov
