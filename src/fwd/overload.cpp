#include "fwd/overload.hpp"

#include <algorithm>

#include "common/clock.hpp"

namespace iofa::fwd {

double SaturationTracker::wait_p99_us() const {
  if (wait_hist_ == nullptr) return 0.0;
  const std::uint64_t now = monotonic_micros();
  std::uint64_t stamp = p99_stamp_us_.load(std::memory_order_acquire);
  if (stamp != 0 && now - stamp < kP99RefreshUs) {
    return p99_cached_us_.load(std::memory_order_relaxed);
  }
  // One thread wins the refresh; losers use the previous cached value
  // rather than walking the buckets in lock-step.
  if (!p99_stamp_us_.compare_exchange_strong(stamp, now,
                                             std::memory_order_acq_rel)) {
    return p99_cached_us_.load(std::memory_order_relaxed);
  }
  telemetry::HistogramSnapshot snap;
  snap.spec = wait_hist_->spec();
  snap.buckets.resize(snap.spec.count);
  for (std::size_t i = 0; i < snap.spec.count; ++i) {
    snap.buckets[i] = wait_hist_->bucket_count(i);
    snap.count += snap.buckets[i];
  }
  snap.sum = wait_hist_->sum();
  const double p99 = snap.count ? snap.quantile(0.99) : 0.0;
  p99_cached_us_.store(p99, std::memory_order_relaxed);
  return p99;
}

double SaturationTracker::score(std::size_t queue_depth,
                                std::size_t queue_capacity,
                                Bytes inflight_bytes,
                                double slab_used_fraction) const {
  if (!options_.enabled) return 0.0;
  double s = 0.0;
  if (queue_capacity > 0 && options_.queue_high_watermark > 0.0) {
    const double limit =
        static_cast<double>(queue_capacity) * options_.queue_high_watermark;
    s = std::max(s, static_cast<double>(queue_depth) / limit);
  }
  if (options_.inflight_bytes_limit > 0) {
    s = std::max(s, static_cast<double>(inflight_bytes) /
                        static_cast<double>(options_.inflight_bytes_limit));
  }
  if (options_.queue_wait_limit > 0.0) {
    s = std::max(s, wait_p99_us() / (options_.queue_wait_limit * 1e6));
  }
  if (slab_used_fraction > 0.0) {
    s = std::max(s, slab_used_fraction / kSlabHighWatermark);
  }
  return s;
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
      if (probes_used_ >= options_.half_open_probes) return false;
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
      if (++probe_successes_ >= options_.half_open_successes) {
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
                                    options_.open_multiplier};
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
