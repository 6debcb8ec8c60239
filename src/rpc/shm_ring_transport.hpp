#pragma once
// Shared-memory-style transport: one bounded FrameRing per direction
// plus one delivery thread per direction. Models the classic
// shared-memory forwarding channel (slab pool feeds the payload, the
// ring carries frames) without actually crossing a process boundary -
// the concurrency is real, the memory sharing is trivially so.

#include <cstddef>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "rpc/frame_ring.hpp"
#include "rpc/transport.hpp"

namespace iofa::rpc {

class ShmRingTransport : public Transport {
 public:
  explicit ShmRingTransport(std::size_t ring_capacity);
  ~ShmRingTransport() override;

  void set_handler(int side, Handler handler) override;
  void send(int side, std::span<const std::byte> frame) override;
  void close() override;

 private:
  void delivery_loop(int dest_side);

  /// rings_[d] carries frames TOWARD side d (so send(side, f) pushes
  /// onto rings_[1 - side]).
  FrameRing rings_[2];
  Mutex handler_mu_;
  Handler handlers_[2] IOFA_GUARDED_BY(handler_mu_);
  std::thread delivery_[2];  // iofa-lint: allow(raw-thread)
  std::atomic<bool> closed_{false};
};

}  // namespace iofa::rpc
