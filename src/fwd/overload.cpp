#include "fwd/overload.hpp"

#include <algorithm>

namespace iofa::fwd {

namespace {

/// Growth of the breaker's open window per trip.
constexpr double kOpenMultiplier = 2.0;
/// Trial-request budget per half-open window, and the probe successes
/// that close the breaker again.
constexpr int kHalfOpenProbes = 2;
constexpr int kHalfOpenSuccesses = 2;

}  // namespace

double SaturationTracker::score(std::size_t queue_depth,
                                std::size_t queue_capacity,
                                double slab_used_fraction) const {
  if (!options_.enabled) return 0.0;
  double s = 0.0;
  if (queue_capacity > 0 && options_.queue_high_watermark > 0.0) {
    const double limit =
        static_cast<double>(queue_capacity) * options_.queue_high_watermark;
    s = static_cast<double>(queue_depth) / limit;
  }
  return std::max(s, slab_used_fraction / kSlabHighWatermark);
}

bool CircuitBreaker::allow(Seconds now) {
  MutexLock lock(mu_);
  if (!options_.enabled) return true;
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now < open_until_) return false;
      state_ = State::kHalfOpen;
      probes_used_ = 1;  // this caller takes the first probe slot
      probe_successes_ = 0;
      if (counters_.half_opened) counters_.half_opened->add(1);
      return true;
    case State::kHalfOpen:
      if (probes_used_ >= kHalfOpenProbes) return false;
      ++probes_used_;
      return true;
  }
  return true;
}

void CircuitBreaker::on_success(Seconds now) {
  (void)now;
  MutexLock lock(mu_);
  if (!options_.enabled) return;
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kOpen:
      // A late completion from before the trip; the open window stands.
      break;
    case State::kHalfOpen:
      if (++probe_successes_ >= kHalfOpenSuccesses) {
        state_ = State::kClosed;
        consecutive_failures_ = 0;
        open_until_ = 0.0;
        if (counters_.closed) counters_.closed->add(1);
      }
      break;
  }
}

void CircuitBreaker::on_failure(Seconds now) {
  MutexLock lock(mu_);
  if (!options_.enabled) return;
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        trip_locked(now);
      }
      break;
    case State::kOpen:
      // Late failure from before the trip; the open window stands.
      break;
    case State::kHalfOpen:
      trip_locked(now);
      break;
  }
}

void CircuitBreaker::trip_locked(Seconds now) {
  ++trips_;
  state_ = State::kOpen;
  consecutive_failures_ = 0;
  probes_used_ = 0;
  probe_successes_ = 0;
  const fault::BackoffPolicy window{options_.open_base, options_.open_cap,
                                    kOpenMultiplier};
  open_until_ =
      now + fault::backoff_delay(window, static_cast<int>(trips_), seed_);
  if (counters_.opened) counters_.opened->add(1);
}

CircuitBreaker::State CircuitBreaker::state() const {
  MutexLock lock(mu_);
  return state_;
}

std::uint64_t CircuitBreaker::trips() const {
  MutexLock lock(mu_);
  return trips_;
}

Seconds CircuitBreaker::open_deadline() const {
  MutexLock lock(mu_);
  return state_ == State::kOpen ? open_until_ : 0.0;
}

}  // namespace iofa::fwd
