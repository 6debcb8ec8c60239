#include "rpc/tcp_transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "rpc/frame.hpp"

namespace iofa::rpc {

namespace {

[[noreturn]] void die(const char* what) {
  throw std::runtime_error(std::string("tcp transport: ") + what +
                           " failed (errno " + std::to_string(errno) + ")");
}

/// sendmsg(2) every byte of the iovecs, riding out partial writes and
/// EINTR: a short write advances the iovec cursor and the loop resends
/// the rest. MSG_NOSIGNAL turns a write to a shut-down peer into EPIPE
/// instead of a process-killing SIGPIPE.
bool send_all(int fd, iovec* iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  while (msg.msg_iovlen > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
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
  for (int side = 0; side < 2; ++side) {
    // iofa-lint: allow(raw-thread) - joined in close(), not detached.
    readers_[side] = std::thread([this, side] { reader_loop(side); });
  }
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::set_handler(int side, Handler handler) {
  MutexLock lk(handler_mu_);
  handlers_[side] = std::move(handler);
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
  send_all(fd_[side], iov, 2);
}

void TcpTransport::reader_loop(int side) {
  for (;;) {
    std::byte prefix[4];
    if (!read_all(fd_[side], prefix, sizeof(prefix))) return;
    std::uint32_t n = 0;
    for (int i = 0; i < 4; ++i) {
      n |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
    }
    if (n > kHeaderSize + kMaxBodyLen) return;  // poisoned stream: stop
    std::vector<std::byte> frame(n);
    if (!read_all(fd_[side], frame.data(), n)) return;
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
  // buffer (it fails with EPIPE) and ends both readers at EOF; the fds
  // stay valid until nothing can touch them.
  for (int fd : fd_) ::shutdown(fd, SHUT_RDWR);
  // Taking each write lock waits out the send in flight on that side;
  // every later send sees closed_ under the same lock and never reads
  // fd_ again. The locks are not held across the join below, because
  // handlers send.
  for (auto& mu : write_mu_) MutexLock lk(mu);
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
  for (int& fd : fd_) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace iofa::rpc
