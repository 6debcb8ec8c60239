#pragma once
// Thread-safe token-bucket rate limiter.
//
// The emulated PFS backend uses one bucket per device to throttle the
// aggregate drain bandwidth: every request must acquire its byte count in
// tokens before it completes.
//
// The QoS hierarchy (src/qos) reuses the bucket as its per-tenant leaf
// node, driven on a caller-owned timeline: the explicit-time overloads
// never read the wall clock, and drain_overflow() surfaces the tokens a
// full bucket sheds past its burst cap so an idle tenant's refill can be
// lent to busy siblings instead of evaporating.

#include <chrono>
#include <cstdint>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"

namespace iofa {

class TokenBucket {
 public:
  using Clock = iofa::MonotonicClock;

  /// rate: tokens (bytes) replenished per second; burst: bucket capacity.
  /// Throws std::invalid_argument when either is non-positive or
  /// non-finite (a zero rate would make acquire() divide by zero and
  /// sleep forever; it used to be only an assert).
  TokenBucket(double rate_per_sec, double burst);

  /// Deterministic variant: the first refill measures from `start`
  /// instead of monotonic_now(). Callers that pass explicit time to every
  /// later call (the QoS hierarchy) get byte-identical replay.
  TokenBucket(double rate_per_sec, double burst, Clock::time_point start);

  /// Block until `n` tokens have been consumed. `n` may exceed the burst
  /// size; the bucket then runs a token debt and the caller sleeps until
  /// its share of the debt is repaid (admission-order queueing).
  /// Throws std::invalid_argument when `n` is negative or non-finite.
  void acquire(double n) IOFA_EXCLUDES(mu_);

  /// Non-blocking: consume `n` tokens if currently available. Throws
  /// std::invalid_argument when `n` is negative, non-finite, or larger
  /// than the burst capacity (such a request can never be satisfied;
  /// callers used to spin on it forever).
  bool try_acquire(double n) IOFA_EXCLUDES(mu_);
  /// Explicit-time variant: no wall-clock read; time moving backwards
  /// is clamped to the last observed instant.
  bool try_acquire(double n, Clock::time_point now) IOFA_EXCLUDES(mu_);

  /// Return `n` tokens taken by try_acquire() for work that was then
  /// not done. The fill level is capped at the burst, as refill is.
  /// Throws std::invalid_argument when `n` is negative or non-finite.
  void refund(double n) IOFA_EXCLUDES(mu_);

  /// Consume up to `n` tokens - whatever is available - and return the
  /// amount actually taken. Never blocks and never goes into debt.
  double take(double n, Clock::time_point now) IOFA_EXCLUDES(mu_);

  /// Tokens currently available (refreshes the fill level first).
  double available() IOFA_EXCLUDES(mu_);
  double available(Clock::time_point now) IOFA_EXCLUDES(mu_);

  /// Tokens shed past the burst cap since the last drain: refill that
  /// arrived while the bucket was already full. The QoS hierarchy lends
  /// this slack to sibling tenants; standalone users may ignore it.
  double drain_overflow(Clock::time_point now) IOFA_EXCLUDES(mu_);

  double rate() const IOFA_EXCLUDES(mu_);
  double burst() const IOFA_EXCLUDES(mu_);

 private:
  void refill_locked(Clock::time_point now) IOFA_REQUIRES(mu_);

  mutable Mutex mu_;
  double rate_ IOFA_GUARDED_BY(mu_);
  double burst_ IOFA_GUARDED_BY(mu_);
  double tokens_ IOFA_GUARDED_BY(mu_);
  double overflow_ IOFA_GUARDED_BY(mu_) = 0.0;
  Clock::time_point last_ IOFA_GUARDED_BY(mu_);
};

}  // namespace iofa
