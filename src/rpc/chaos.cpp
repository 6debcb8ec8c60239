#include "rpc/chaos.hpp"

#include <utility>

#include "common/clock.hpp"

namespace iofa::rpc {

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner,
                               fault::FaultInjector* injector,
                               std::string req_site, std::string rsp_site)
    : inner_(std::move(inner)), injector_(injector) {
  sites_[kClientSide] = std::move(req_site);
  sites_[kServerSide] = std::move(rsp_site);
}

ChaosTransport::~ChaosTransport() { close(); }

void ChaosTransport::set_handler(int side, Handler handler) {
  inner_->set_handler(side, std::move(handler));
}

bool ChaosTransport::set_caller_driven_handler(int side, Handler handler) {
  return inner_->set_caller_driven_handler(side, std::move(handler));
}

// Faults are drawn per frame sent, so receiving passes straight through.
Received ChaosTransport::receive(int side, Seconds deadline) {
  return inner_->receive(side, deadline);
}

void ChaosTransport::send(int side, std::span<const std::byte> frame) {
  fault::MessageDecision d;
  if (injector_ && injector_->enabled()) {
    d = injector_->message_decision(sites_[side]);
  }
  if (d.drop) return;
  if (d.truncate && !frame.empty()) {
    // A half-length prefix: always fails the codec's frame-length
    // check, exercising the typed-error path end to end.
    frame = frame.first(frame.size() / 2);
  }
  if (d.delay > 0.0) sleep_for_seconds(d.delay);
  if (d.reorder) {
    // Hold this frame; it goes out right after the NEXT frame on this
    // direction. A second reorder while one frame is already held
    // degenerates to FIFO (the held frame flushes first) - one slot is
    // enough to prove receivers tolerate inversion. The held frame
    // outlives the caller's borrow, so it is the one copy made here.
    MutexLock lk(mu_);
    if (!closed_ && !holding_[side]) {
      held_[side].assign(frame.begin(), frame.end());
      holding_[side] = true;
      return;
    }
  }
  std::vector<std::byte> flush;
  bool have_flush = false;
  {
    MutexLock lk(mu_);
    if (holding_[side]) {
      flush = std::move(held_[side]);
      holding_[side] = false;
      have_flush = true;
    }
  }
  inner_->send(side, frame);
  if (d.dup) inner_->send(side, frame);
  if (have_flush) inner_->send(side, flush);
}

void ChaosTransport::close() {
  // Flush held frames before the inner transport stops delivering:
  // reorder means "late", never "lost" (lost is drop's job).
  for (int side = 0; side < 2; ++side) {
    std::vector<std::byte> flush;
    bool have = false;
    {
      MutexLock lk(mu_);
      if (closed_) return;
      if (holding_[side]) {
        flush = std::move(held_[side]);
        holding_[side] = false;
        have = true;
      }
    }
    if (have) inner_->send(side, flush);
  }
  {
    MutexLock lk(mu_);
    closed_ = true;
  }
  inner_->close();
}

}  // namespace iofa::rpc
