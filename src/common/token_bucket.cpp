#include "common/token_bucket.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/clock.hpp"

namespace iofa {

namespace {

void check_positive(double v, const char* what) {
  // `!(v > 0)` also catches NaN.
  if (!(v > 0.0) || !std::isfinite(v)) {
    throw std::invalid_argument(std::string("TokenBucket: ") + what +
                                " must be positive and finite, got " +
                                std::to_string(v));
  }
}

void check_amount(double n) {
  if (n < 0.0 || !std::isfinite(n)) {
    throw std::invalid_argument(
        "TokenBucket: token amount must be non-negative and finite, got " +
        std::to_string(n));
  }
}

}  // namespace

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : TokenBucket(rate_per_sec, burst, monotonic_now()) {}

TokenBucket::TokenBucket(double rate_per_sec, double burst,
                         Clock::time_point start)
    : rate_(rate_per_sec), burst_(burst), tokens_(burst), last_(start) {
  check_positive(rate_per_sec, "refill rate");
  check_positive(burst, "burst capacity");
}

void TokenBucket::refill_locked(Clock::time_point now) {
  if (now < last_) now = last_;  // monotonic clamp
  const std::chrono::duration<double> dt = now - last_;
  last_ = now;
  const double filled = tokens_ + dt.count() * rate_;
  if (filled > burst_) {
    overflow_ += filled - burst_;
    tokens_ = burst_;
  } else {
    tokens_ = filled;
  }
}

void TokenBucket::acquire(double n) {
  check_amount(n);
  // Debt model: consume immediately (the fill level may go negative) and
  // sleep until this caller's share of the debt is repaid. Concurrent
  // callers thus queue up in admission order and the aggregate rate is
  // conserved, while arbitrarily large requests stay O(1).
  double deficit;
  double rate;
  {
    MutexLock lk(mu_);
    refill_locked(monotonic_now());
    deficit = n - tokens_;
    tokens_ -= n;
    rate = rate_;
  }
  if (deficit <= 0.0) return;
  sleep_for_seconds(deficit / rate);
}

bool TokenBucket::try_acquire(double n) {
  return try_acquire(n, monotonic_now());
}

bool TokenBucket::try_acquire(double n, Clock::time_point now) {
  check_amount(n);
  MutexLock lk(mu_);
  if (n > burst_) {
    // Can never be satisfied: tokens_ is capped at burst_. Callers used
    // to spin on the false return forever; fail loudly instead.
    throw std::invalid_argument(
        "TokenBucket: try_acquire(" + std::to_string(n) +
        ") exceeds burst capacity " + std::to_string(burst_) +
        " and would never succeed; use acquire() or split the request");
  }
  refill_locked(now);
  if (tokens_ < n) return false;
  tokens_ -= n;
  return true;
}

void TokenBucket::refund(double n) {
  check_amount(n);
  MutexLock lk(mu_);
  refill_locked(monotonic_now());
  tokens_ = std::min(burst_, tokens_ + n);
}

double TokenBucket::take(double n, Clock::time_point now) {
  check_amount(n);
  MutexLock lk(mu_);
  refill_locked(now);
  const double got = std::clamp(tokens_, 0.0, n);
  tokens_ -= got;
  return got;
}

double TokenBucket::available() { return available(monotonic_now()); }

double TokenBucket::available(Clock::time_point now) {
  MutexLock lk(mu_);
  refill_locked(now);
  return tokens_;
}

double TokenBucket::drain_overflow(Clock::time_point now) {
  MutexLock lk(mu_);
  refill_locked(now);
  const double shed = overflow_;
  overflow_ = 0.0;
  return shed;
}

double TokenBucket::rate() const {
  MutexLock lk(mu_);
  return rate_;
}

double TokenBucket::burst() const {
  MutexLock lk(mu_);
  return burst_;
}

}  // namespace iofa
