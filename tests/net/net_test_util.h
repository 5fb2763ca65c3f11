// Blocking socket helpers for tests that play a peer by hand. The
// library drives every socket from the reactor and has no blocking wait
// or blocking frame I/O of its own; frames are written with write_batch
// and read with FrameReader, exactly as the nodes do.
#pragma once

#include <poll.h>

#include <optional>

#include "net/framing.h"
#include "net/socket.h"

namespace iov::test {

/// Waits until `fd` is readable or `timeout` elapses. True when readable
/// (or at EOF / error). A negative timeout waits forever.
inline bool wait_readable(int fd, Duration timeout) {
  pollfd pfd{fd, POLLIN, 0};
  const int timeout_ms =
      timeout < 0 ? -1 : static_cast<int>(timeout / kNanosPerMilli);
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }
}

/// Writes one framed message: header and payload in one sendmsg.
inline bool write_frame(TcpConn& conn, const MsgPtr& m) {
  return write_batch(conn, &m, 1);
}

/// Writes the 16-byte connection hello.
inline bool write_hello(TcpConn& conn, const Hello& hello) {
  const auto bytes = encode_hello(hello);
  return conn.write_all(bytes.data(), bytes.size());
}

/// Reads the 16-byte hello from a blocking socket and decodes it;
/// nullopt on EOF, socket error, or a hello decode_hello() rejects.
inline std::optional<Hello> read_hello(TcpConn& conn) {
  u8 bytes[kHelloBytes];
  if (!conn.read_all(bytes, sizeof(bytes))) return std::nullopt;
  return decode_hello(bytes);
}

}  // namespace iov::test
