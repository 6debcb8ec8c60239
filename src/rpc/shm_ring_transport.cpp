#include "rpc/shm_ring_transport.hpp"

#include <utility>

namespace iofa::rpc {

ShmRingTransport::ShmRingTransport(std::size_t ring_capacity)
    : rings_{FrameRing(ring_capacity), FrameRing(ring_capacity)} {
  for (int side = 0; side < 2; ++side) {
    // iofa-lint: allow(raw-thread) - joined in close(), not detached.
    delivery_[side] = std::thread([this, side] { delivery_loop(side); });
  }
}

ShmRingTransport::~ShmRingTransport() { close(); }

void ShmRingTransport::set_handler(int side, Handler handler) {
  MutexLock lk(handler_mu_);
  handlers_[side] = std::move(handler);
}

void ShmRingTransport::send(int side, std::span<const std::byte> frame) {
  // The ring slot owns its frame: the one copy of this transport.
  // push() blocks while the destination ring is full and returns false
  // only once the link is closed, in which case the frame is dropped on
  // the floor - exactly the documented close() semantics.
  rings_[1 - side].push(std::vector<std::byte>(frame.begin(), frame.end()));
}

void ShmRingTransport::delivery_loop(int dest_side) {
  for (;;) {
    auto frame = rings_[dest_side].pop_wait();
    if (!frame) return;  // closed and drained
    Handler handler;
    {
      MutexLock lk(handler_mu_);
      handler = handlers_[dest_side];
    }
    if (handler) handler(std::move(*frame));
  }
}

void ShmRingTransport::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  rings_[0].close();
  rings_[1].close();
  for (auto& t : delivery_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace iofa::rpc
