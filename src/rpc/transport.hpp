#pragma once
// One duplex frame link between a client-side endpoint and a
// server-side endpoint - the single interface every frame transport
// implements, so endpoints (and the chaos decorator) never know which
// one is underneath.
//
// Sides are numbered: kClientSide sends requests, kServerSide sends
// acks/responses. Delivery contract for every implementation:
//
//   * frames arrive whole (never torn) or not at all;
//   * per-direction FIFO order between send() calls that are ordered
//     by the caller (concurrent senders serialise at the transport);
//   * the receive handler runs on an unspecified thread (the sender's
//     thread for the loopback transport, a delivery thread otherwise)
//     and must not call back into send() on the same side recursively;
//   * after close(), sends are silently dropped and handlers stop
//     firing once in-flight frames drain.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "rpc/options.hpp"

namespace iofa::rpc {

inline constexpr int kClientSide = 0;
inline constexpr int kServerSide = 1;

class Transport {
 public:
  using Handler = std::function<void(std::vector<std::byte>)>;

  virtual ~Transport() = default;

  /// Install the receive handler for frames arriving AT `side`. Must be
  /// called for both sides before the first send (endpoints do this in
  /// their constructors, before any traffic exists).
  virtual void set_handler(int side, Handler handler) = 0;

  /// Send a frame FROM `side` to the opposite side. The frame is
  /// borrowed for the duration of the call only: a transport that must
  /// keep the bytes (a held chaos frame) copies them, so a
  /// caller can resend one encoded frame without re-copying it. May
  /// block while the channel is full; never drops silently while the
  /// link is open.
  virtual void send(int side, std::span<const std::byte> frame) = 0;

  /// Stop delivery and join any delivery threads. Idempotent.
  virtual void close() = 0;
};

/// Frames are handed to the peer's handler synchronously on the
/// sender's thread. Zero concurrency of its own: the reference
/// implementation the codec/chaos unit tests drive, and the baseline
/// the threaded transports are tested against.
class LoopbackTransport : public Transport {
 public:
  void set_handler(int side, Handler handler) override;
  void send(int side, std::span<const std::byte> frame) override;
  void close() override;

 private:
  Handler handlers_[2];
  bool closed_ = false;
};

/// Build a frame transport for `kind` (kTcp; the in-proc wiring has no
/// frames and never calls this). Throws std::invalid_argument for kinds
/// without a frame path.
std::unique_ptr<Transport> make_transport(TransportKind kind);

}  // namespace iofa::rpc
