#pragma once
// Loopback TCP socket-pair transport: a real connected socket pair on
// 127.0.0.1 with u32 length-prefixed frames, each leaving in one
// gathered sendmsg (prefix + body, no staging copy), and one reader
// thread per side. The one transport whose bytes actually leave the process
// abstraction - partial reads/writes, kernel buffering and genuine
// cross-thread delivery all happen for real.

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

  void set_handler(int side, Handler handler) override;
  void send(int side, std::span<const std::byte> frame) override;
  void close() override;

 private:
  void reader_loop(int side);

  /// fd_[side] is the endpoint owned by `side`; a frame sent FROM side
  /// s is written to fd_[s] and surfaces in the peer's reader thread.
  /// close() releases the fds only after both readers are joined and
  /// every sender has seen closed_ under its write lock.
  int fd_[2] = {-1, -1};
  Mutex handler_mu_;
  Handler handlers_[2] IOFA_GUARDED_BY(handler_mu_);
  /// Serialises concurrent send() calls on the same side so frames
  /// interleave whole, never torn; close() takes it to fence senders
  /// off the fd.
  Mutex write_mu_[2];  // iofa-lint: allow(naked-mutex)
  std::thread readers_[2];  // iofa-lint: allow(raw-thread)
  std::atomic<bool> closed_{false};
};

}  // namespace iofa::rpc
