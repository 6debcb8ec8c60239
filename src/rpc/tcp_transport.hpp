#pragma once
// Loopback TCP socket-pair transport: a real connected socket pair on
// 127.0.0.1 with u32 length-prefixed frames, each leaving in one
// gathered sendmsg (prefix + body, no staging copy). A pushed side has
// one reader thread; a caller-driven side has none and is read by the
// callers of receive(). The one transport whose bytes actually leave
// the process abstraction - partial reads/writes, kernel buffering and
// genuine cross-thread delivery all happen for real.

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "rpc/transport.hpp"

namespace iofa::rpc {

class TcpTransport : public Transport {
 public:
  /// Binds an ephemeral loopback port, connects and accepts. Throws
  /// std::runtime_error when the platform refuses sockets.
  TcpTransport();
  ~TcpTransport() override;

  /// Starts the side's reader thread on its first install.
  void set_handler(int side, Handler handler) override;
  /// Starts no thread. A side keeps the delivery it was first given.
  bool set_caller_driven_handler(int side, Handler handler) override;
  /// Reads and handles one whole frame under the side's receive lock
  /// (kBusy when taken), so handlers see frames in FIFO order.
  Received receive(int side, Seconds deadline) override;
  /// On a caller-driven side, a sender that finds the socket full
  /// delivers incoming frames while it waits for room.
  void send(int side, std::span<const std::byte> frame) override;
  void close() override;

 private:
  /// True when the side is caller-driven.
  bool install(int side, Handler handler, bool caller_driven);
  void reader_loop(int side);
  /// The caller-driven side's handler; empty for a pushed side.
  Handler pulled_handler(int side) IOFA_EXCLUDES(handler_mu_);
  /// Block until fd_[side] takes more bytes; false when the link died.
  bool wait_for_room(int side);

  /// fd_[side] is the endpoint owned by `side`; a frame sent FROM side
  /// s is written to fd_[s] and read at the peer's side. close()
  /// releases the fds only after every reader, receiver and sender has
  /// left them.
  int fd_[2] = {-1, -1};
  Mutex handler_mu_;
  Handler handlers_[2] IOFA_GUARDED_BY(handler_mu_);
  bool caller_driven_[2] IOFA_GUARDED_BY(handler_mu_) = {false, false};
  /// Serialises concurrent send() calls on the same side so frames
  /// interleave whole, never torn; close() takes it to fence senders
  /// off the fd.
  Mutex write_mu_[2];  // iofa-lint: allow(naked-mutex)
  /// Held by whoever reads a caller-driven side (receive() or a sender
  /// waiting for room); close() takes it to fence receivers off the fd.
  Mutex recv_mu_[2];  // iofa-lint: allow(naked-mutex)
  std::thread readers_[2];  // iofa-lint: allow(raw-thread)
  std::atomic<bool> closed_{false};
};

}  // namespace iofa::rpc
