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
//   * a side installed with set_handler() is pushed: its handler runs
//     on an unspecified thread (the sender's for the loopback
//     transport, a delivery thread otherwise) and must not recurse
//     into a send() of its own side;
//   * a side installed with set_caller_driven_handler() on a transport
//     that supports it is pulled: frames wait until a caller's
//     receive() delivers them on that caller's thread, in FIFO order.
//     Its handler may run inside that side's blocked send(), so it
//     must not send from that side. Nothing reads a pulled side while
//     nobody calls receive(): a peer whose frames fill it waits in its
//     send until somebody does;
//   * after close(), sends are silently dropped and handlers stop
//     firing once in-flight frames drain.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "rpc/options.hpp"

namespace iofa::rpc {

inline constexpr int kClientSide = 0;
inline constexpr int kServerSide = 1;

/// What one receive() call did.
enum class Received {
  kFrame,    ///< one frame went to the handler on the calling thread
  kTimeout,  ///< no frame came before the deadline
  kBusy,     ///< another thread is receiving on this side
  kClosed,   ///< the link is closed, its stream ended, or the side is pushed
};

class Transport {
 public:
  using Handler = std::function<void(std::vector<std::byte>)>;

  virtual ~Transport() = default;

  /// Install the receive handler for frames arriving AT `side`. Must be
  /// called for both sides before the first send (endpoints do this in
  /// their constructors, before any traffic exists).
  virtual void set_handler(int side, Handler handler) = 0;

  /// Install `handler` for `side` with caller-driven delivery; false
  /// when the side is pushed instead, as set_handler() does (the
  /// default, for a transport without caller-driven delivery).
  virtual bool set_caller_driven_handler(int side, Handler handler) {
    set_handler(side, std::move(handler));
    return false;
  }

  /// Deliver at most one frame waiting at a caller-driven `side` on the
  /// calling thread, waiting until `deadline` (monotonic_seconds()).
  virtual Received receive(int /*side*/, Seconds /*deadline*/) {
    return Received::kClosed;
  }

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
