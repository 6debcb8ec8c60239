#include "rpc/tcp_transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/clock.hpp"
#include "rpc/frame.hpp"

namespace iofa::rpc {

namespace {

[[noreturn]] void die(const char* what) {
  throw std::runtime_error(std::string("tcp transport: ") + what +
                           " failed (errno " + std::to_string(errno) + ")");
}

/// sendmsg(2) every byte of the iovecs, riding out partial writes and
/// EINTR: a short write advances the iovec cursor and the loop resends
/// the rest. On a full socket `wait_for_room()` waits; false ends the
/// send. MSG_NOSIGNAL turns a write to a shut-down peer into EPIPE
/// instead of a process-killing SIGPIPE.
template <typename WaitForRoom>
bool send_all(int fd, iovec* iov, std::size_t count,
              WaitForRoom&& wait_for_room) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  while (msg.msg_iovlen > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && wait_for_room()) {
        continue;
      }
      return false;
    }
    auto sent = static_cast<std::size_t>(w);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      iovec& cur = *msg.msg_iov;
      cur.iov_base = static_cast<std::byte*>(cur.iov_base) + sent;
      cur.iov_len -= sent;
    }
  }
  return true;
}

/// read(2) exactly n bytes; false on EOF or error.
bool read_all(int fd, std::byte* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(r);
  }
  return true;
}

/// Read one length-prefixed frame; false on EOF, error, or a length
/// past the codec's limit (a poisoned stream).
bool read_frame(int fd, std::vector<std::byte>& frame) {
  std::byte prefix[4];
  if (!read_all(fd, prefix, sizeof(prefix))) return false;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  if (n > kHeaderSize + kMaxBodyLen) return false;
  frame.resize(n);
  return read_all(fd, frame.data(), n);
}

/// Read one frame from `fd` into `handler`; a failed stream is shut for
/// reading, so every later receive sees EOF at once.
bool deliver_one(int fd, const Transport::Handler& handler) {
  std::vector<std::byte> frame;
  if (!read_frame(fd, frame)) {
    ::shutdown(fd, SHUT_RD);
    return false;
  }
  handler(std::move(frame));
  return true;
}

}  // namespace

TcpTransport::TcpTransport() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  // sockaddr punning is the sockets API, not frame decoding.
  // iofa-lint: allow(raw-wire)
  sockaddr* sa = reinterpret_cast<sockaddr*>(&addr);
  if (::bind(listener, sa, sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    ::close(listener);
    die("bind/listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener, sa, &len) != 0) {
    ::close(listener);
    die("getsockname");
  }
  fd_[kClientSide] = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_[kClientSide] < 0) {
    ::close(listener);
    die("socket");
  }
  if (::connect(fd_[kClientSide], sa, sizeof(addr)) != 0) {
    ::close(listener);
    die("connect");
  }
  fd_[kServerSide] = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (fd_[kServerSide] < 0) die("accept");
  for (int fd : fd_) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::set_handler(int side, Handler handler) {
  install(side, std::move(handler), false);
}

bool TcpTransport::set_caller_driven_handler(int side, Handler handler) {
  return install(side, std::move(handler), true);
}

bool TcpTransport::install(int side, Handler handler, bool caller_driven) {
  MutexLock lk(handler_mu_);
  handlers_[side] = std::move(handler);
  if (readers_[side].joinable()) return false;  // a pushed side stays pushed
  caller_driven_[side] = caller_driven;
  if (!caller_driven && !closed_.load(std::memory_order_acquire)) {
    // iofa-lint: allow(raw-thread) - joined in close(), not detached.
    readers_[side] = std::thread([this, side] { reader_loop(side); });
  }
  return caller_driven;
}

TcpTransport::Handler TcpTransport::pulled_handler(int side) {
  MutexLock lk(handler_mu_);
  return caller_driven_[side] ? handlers_[side] : Handler();
}

Received TcpTransport::receive(int side, Seconds deadline) {
  const Handler handler = pulled_handler(side);
  if (!handler) return Received::kClosed;  // pushed: never read here
  if (!recv_mu_[side].try_lock()) return Received::kBusy;
  // close() shuts the socket down before it takes this lock, so a poll
  // in progress ends at once, and resets fd_ after its release, so fd_
  // is read only while closed_ is clear.
  // A deadline past an hour polls for an hour: the caller asks again.
  Received result = Received::kClosed;
  if (!closed_.load(std::memory_order_acquire)) {
    pollfd p{fd_[side], POLLIN, 0};
    const Seconds left =
        std::clamp(deadline - monotonic_seconds(), 0.0, 3600.0);
    const int n = ::poll(&p, 1, static_cast<int>(std::ceil(left * 1e3)));
    if (n == 0 || (n < 0 && errno == EINTR)) result = Received::kTimeout;
    if (n > 0 && deliver_one(fd_[side], handler)) result = Received::kFrame;
  }
  recv_mu_[side].unlock();
  return result;
}

void TcpTransport::send(int side, std::span<const std::byte> frame) {
  // u32 little-endian length prefix, packed byte-by-byte: the codec is
  // the only place allowed to memcpy frame bytes (raw-wire rule).
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
  std::byte prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::byte>((n >> (8 * i)) & 0xFF);
  }
  // Prefix and body leave in ONE gathered write straight from the
  // caller's buffer: one segment under TCP_NODELAY, one reader wakeup.
  // sendmsg never writes through iov_base, the const_cast only meets
  // the iovec type.
  iovec iov[2] = {{prefix, sizeof(prefix)},
                  {const_cast<std::byte*>(frame.data()), frame.size()}};
  MutexLock lk(write_mu_[side]);
  if (closed_.load(std::memory_order_acquire)) return;
  send_all(fd_[side], iov, 2, [this, side] { return wait_for_room(side); });
}

bool TcpTransport::wait_for_room(int side) {
  // A caller-driven side has no reader thread: its sender reads while
  // it waits, or a peer blocked sending it answers would wait for this
  // side in turn. While another thread receives, it looks again each
  // millisecond in case that receiver leaves.
  const Handler handler = pulled_handler(side);
  pollfd p{fd_[side], POLLOUT, 0};
  if (!handler || !recv_mu_[side].try_lock()) {
    return ::poll(&p, 1, handler ? 1 : -1) >= 0 || errno == EINTR;
  }
  p.events |= POLLIN;
  bool alive = ::poll(&p, 1, -1) >= 0 || errno == EINTR;
  if (alive && (p.revents & POLLIN) && !(p.revents & POLLOUT)) {
    alive = deliver_one(fd_[side], handler);
  }
  recv_mu_[side].unlock();
  return alive;
}

void TcpTransport::reader_loop(int side) {
  for (;;) {
    std::vector<std::byte> frame;
    if (!read_frame(fd_[side], frame)) return;  // EOF or poisoned stream
    Handler handler;
    {
      MutexLock lk(handler_mu_);
      handler = handlers_[side];
    }
    if (handler) handler(std::move(frame));
  }
}

void TcpTransport::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Shutting down first releases a sender blocked on a full socket
  // buffer (it fails with EPIPE) and ends every reader and receiver at
  // EOF; the fds stay valid until nothing can touch them.
  for (int fd : fd_) ::shutdown(fd, SHUT_RDWR);
  // Taking each write and receive lock waits out the send or receive
  // in flight on that side; every later one sees closed_ under the same
  // lock and never reads fd_ again. The locks are not held across the
  // join below, because handlers send.
  for (auto& mu : write_mu_) MutexLock lk(mu);
  for (auto& mu : recv_mu_) MutexLock lk(mu);
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
  for (int& fd : fd_) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace iofa::rpc
