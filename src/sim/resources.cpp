#include "sim/resources.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace iofa::sim {

namespace {
// Flows are byte counts; anything below half a byte is floating-point
// residue. Treating it as zero prevents zero-progress event loops when
// the next completion lands on the same double timestamp.
constexpr double kEpsilonBytes = 0.5;
}  // namespace

SharedBandwidth::SharedBandwidth(Simulator& sim,
                                 double capacity_bytes_per_sec,
                                 std::function<double(std::size_t)> efficiency)
    : sim_(sim),
      capacity_(capacity_bytes_per_sec),
      efficiency_(std::move(efficiency)),
      last_update_(sim.now()) {
  assert(capacity_ > 0.0);
}

double SharedBandwidth::per_flow_rate() const {
  if (flows_.empty()) return 0.0;
  const std::size_t n = flows_.size();
  const double eta = efficiency_ ? efficiency_(n) : 1.0;
  return capacity_ * eta / static_cast<double>(n);
}

void SharedBandwidth::advance_to_now() {
  const Seconds now = sim_.now();
  const Seconds dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0 || flows_.empty()) return;
  const double drained = per_flow_rate() * dt;
  for (auto& [id, flow] : flows_) {
    flow.remaining = std::max(0.0, flow.remaining - drained);
  }
}

void SharedBandwidth::reschedule() {
  if (pending_event_ != 0) {
    sim_.cancel(pending_event_);
    pending_event_ = 0;
  }
  if (flows_.empty()) return;

  // Next completion: the flow with the least remaining bytes finishes
  // first since all flows drain at the same rate.
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    min_remaining = std::min(min_remaining, flow.remaining);
  }
  const double rate = per_flow_rate();
  assert(rate > 0.0);
  const Seconds dt =
      min_remaining <= kEpsilonBytes ? 0.0 : min_remaining / rate;

  pending_event_ = sim_.schedule(dt, [this] {
    pending_event_ = 0;
    advance_to_now();
    // Complete every flow that drained (ties complete together).
    std::vector<std::pair<FlowId, EventFn>> finished;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.remaining <= kEpsilonBytes) {
        finished.emplace_back(it->first, std::move(it->second.done));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    reschedule();
    for (auto& [id, done] : finished) {
      (void)id;
      done();
    }
  });
}

FlowId SharedBandwidth::start_flow(Bytes bytes, EventFn done) {
  advance_to_now();
  const FlowId id = next_flow_++;
  bytes_done_ += bytes;  // counted on admission; aborts subtract remainder
  flows_.emplace(id, Flow{static_cast<double>(bytes), std::move(done)});
  reschedule();
  return id;
}

std::optional<Bytes> SharedBandwidth::abort_flow(FlowId id) {
  advance_to_now();
  auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  const auto remaining = static_cast<Bytes>(std::ceil(it->second.remaining));
  bytes_done_ -= std::min<Bytes>(bytes_done_, remaining);
  flows_.erase(it);
  reschedule();
  return remaining;
}

}  // namespace iofa::sim
