#include "rpc/transport.hpp"

#include <stdexcept>
#include <utility>

#include "rpc/tcp_transport.hpp"

namespace iofa::rpc {

void LoopbackTransport::set_handler(int side, Handler handler) {
  handlers_[side] = std::move(handler);
}

void LoopbackTransport::send(int side, std::span<const std::byte> frame) {
  if (closed_) return;
  // The handler takes ownership, so the synchronous hand-off copies.
  Handler& peer = handlers_[1 - side];
  if (peer) peer(std::vector<std::byte>(frame.begin(), frame.end()));
}

void LoopbackTransport::close() { closed_ = true; }

std::unique_ptr<Transport> make_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kTcp:
      return std::make_unique<TcpTransport>();
    case TransportKind::kAuto:
    case TransportKind::kInProc:
      break;
  }
  throw std::invalid_argument(
      std::string("make_transport: no frame path for transport '") +
      to_string(kind) + "'");
}

}  // namespace iofa::rpc
