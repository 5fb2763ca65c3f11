// Acceptor — the one way a process takes connections on a publicized
// port (DESIGN.md §9); an engine, the observer and the proxy each own
// one. Accepts never block, and EMFILE/ENFILE takes the listener out of
// the epoll set for 100 ms (pending connects wait in the kernel
// backlog). Each accepted socket gathers its 16-byte hello under a 1 s
// worker timer, so a peer that stalls half-way costs a descriptor for a
// second, never a wait. The owner may then take the socket; a control
// connection it leaves is decoded by a non-blocking FrameReader until
// EOF, and any other is closed.
//
// Threading: everything, owner callbacks included, runs on the worker
// given to start(); only listen() and port() come before, on one thread.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/framing.h"
#include "net/reactor/reactor.h"

namespace iov {

class AcceptOwner {
 public:
  virtual ~AcceptOwner() = default;
  /// A connection's hello arrived. Move `conn` out to keep the socket
  /// (non-blocking; frames may already wait behind the hello).
  virtual void on_hello(const Hello& /*hello*/, TcpConn& /*conn*/) {}
  /// A frame decoded on a control connection left with the acceptor.
  virtual void on_control_frame(MsgPtr /*m*/) {}
  /// accept() ran out of descriptors; the acceptor backs off and retries.
  virtual void on_accept_exhausted() {}
};

class Acceptor final : private reactor::EventHandler {
 public:
  /// `pool` serves the control connections' receive chunks.
  Acceptor(AcceptOwner& owner, SlabPool& pool) : owner_(owner), pool_(pool) {}
  ~Acceptor() override { stop(); }

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Binds the listening socket (see TcpListener::listen).
  bool listen(u16 port, bool loopback_only, int buffer_bytes = 0);
  u16 port() const { return listener_.port(); }

  void start(reactor::Worker& worker);

  /// Accepts every pending connection and reads every hello that has
  /// arrived. An engine calls this when a dialed link decodes its first
  /// frame, so the peer's crossing dial is attached first.
  void accept_now();

  /// Closes the listener and every connection still here; no owner
  /// callback follows. Idempotent; not from inside an owner callback.
  void stop();

  /// Connections still here: awaiting a hello, or decoding frames.
  std::size_t pending() const { return conns_.size(); }

 private:
  struct Conn final : reactor::EventHandler {
    Conn(Acceptor& a, TcpConn c) : acceptor(a), conn(std::move(c)) {}
    void on_event(u32) override {
      reader ? acceptor.read_frames(*this) : acceptor.gather_hello(*this);
    }
    Acceptor& acceptor;
    TcpConn conn;
    std::array<u8, kHelloBytes> hello{};
    std::size_t got = 0;
    std::optional<FrameReader> reader;  ///< set once a control hello arrived
  };

  void on_event(u32) override { accept_pending(); }  // the listener
  void accept_pending();
  void gather_hello(Conn& c);
  void read_frames(Conn& c);
  void drop(Conn& c);

  AcceptOwner& owner_;
  SlabPool& pool_;
  TcpListener listener_;
  reactor::Worker* worker_ = nullptr;
  bool listening_ = false;  ///< listener fd in the worker's epoll set
  bool stopped_ = false;
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns_;
};

}  // namespace iov
