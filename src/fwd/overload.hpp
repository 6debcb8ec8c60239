#pragma once
// Overload control for the forwarding runtime.
//
// PR 3 taught the stack to survive IONs that die; this layer protects
// it from IONs that are merely drowning. Three cooperating pieces:
//
//   SaturationTracker - daemon-side admission control. Each IonDaemon
//       folds its ingest queue depth and its payload slab-pool
//       occupancy into one saturation score, normalised so 1.0 is the
//       high watermark. Past the watermark new data requests are
//       refused fast with a retryable IonBusy answer instead of rotting
//       in the shard queues (the SDQoS admission idea, arXiv:1805.06169).
//
//   CircuitBreaker - client-side, one per ION. Consecutive IonBusy /
//       timeout outcomes open the breaker; while open the client stops
//       offering work to that ION and degrades to the bandwidth-capped
//       direct-PFS path (the paper's ZERO-policy route). After a
//       deterministic, seed-jittered open window the breaker goes
//       half-open and admits a budgeted number of trial requests;
//       enough successes close it, any failure re-opens it with a
//       longer window. All jitter derives from fault::backoff_delay's
//       seeded streams, so fault-seed replay stays byte-identical.
//
//   Deadline propagation - clients stamp requests with an absolute
//       deadline derived from their timeout; daemons drop expired work
//       at dequeue (counted in qos.tenant.expired, never silently)
//       so saturated queues drain useful work first.
//
// Where every submission attempt ends up is counted in one place, the
// per-tenant admission ledger; its identity lives in qos/enforcer.hpp.

#include <cstdint>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"
#include "fault/backoff.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {

/// Daemon-side admission knobs (IonParams::admission).
struct AdmissionOptions {
  /// Off by default: try_submit() then never answers IonBusy and the
  /// legacy blocking-submit behaviour is byte-identical.
  bool enabled = false;
  /// Fraction of the aggregate ingest-queue capacity at which the
  /// saturation score reaches 1.0 (and admission starts refusing).
  double queue_high_watermark = 0.9;
};

/// Payload slab-pool occupancy (fullest size class, 0..1) at which the
/// saturation score reaches 1.0 — pool exhaustion becomes backpressure
/// before clients start paying heap fallbacks. Inert while the daemon
/// has no slab pool attached (slab_used_fraction stays 0).
inline constexpr double kSlabHighWatermark = 0.95;

/// Folds the two admission criteria, queue depth and slab-pool
/// occupancy, into one saturation score: the max of the two, each
/// normalised so 1.0 means "at the high watermark".
class SaturationTracker {
 public:
  explicit SaturationTracker(AdmissionOptions options) : options_(options) {}

  const AdmissionOptions& options() const { return options_; }

  /// Saturation in [0, inf); >= 1.0 means past the high watermark.
  /// `slab_used_fraction` is the payload pool's fullest-class occupancy
  /// (0 when the daemon has no pool attached).
  double score(std::size_t queue_depth, std::size_t queue_capacity,
               double slab_used_fraction = 0.0) const;

  /// The admission rule: with admission enabled, a score at or past
  /// the high watermark refuses new data requests.
  bool rejects(double score) const {
    return options_.enabled && score >= 1.0;
  }

 private:
  AdmissionOptions options_;
};

/// Client-side breaker knobs (ClientConfig::breaker).
struct BreakerOptions {
  bool enabled = false;
  /// Consecutive IonBusy/timeout outcomes that trip the breaker.
  int failure_threshold = 5;
  /// Open-window duration schedule: base * 2^(trips-1), capped, then
  /// jittered into [d/2, d) from the seeded stream.
  Seconds open_base = 10.0e-3;
  Seconds open_cap = 200.0e-3;
};

/// Per-ION circuit breaker: closed -> open on consecutive failures,
/// open -> half-open after the (seed-jittered) open window, half-open
/// -> closed after two probe successes (at most two probes per
/// half-open window), half-open -> open on any probe failure. Time is passed in by the caller, so the state machine
/// is fully deterministic under test; jitter draws from the seeded
/// fault::backoff_delay stream, so fault replay stays byte-identical.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// Optional transition counters (fwd.overload.breaker_*); any may be
  /// null. `seed` should mix the client's retry seed with the ION id so
  /// every (job, ion) pair jitters independently.
  struct Counters {
    telemetry::Counter* opened = nullptr;
    telemetry::Counter* half_opened = nullptr;
    telemetry::Counter* closed = nullptr;
  };

  CircuitBreaker(BreakerOptions options, std::uint64_t seed,
                 Counters counters)
      : options_(options), seed_(seed), counters_(counters) {}
  CircuitBreaker(BreakerOptions options, std::uint64_t seed)
      : CircuitBreaker(options, seed, Counters()) {}

  /// May this caller offer a request right now? Performs the
  /// open -> half-open transition (and consumes one probe slot) when
  /// the open window has elapsed.
  bool allow(Seconds now) IOFA_EXCLUDES(mu_);

  /// Record the outcome of an offered request.
  void on_success(Seconds now) IOFA_EXCLUDES(mu_);
  void on_failure(Seconds now) IOFA_EXCLUDES(mu_);

  State state() const IOFA_EXCLUDES(mu_);
  std::uint64_t trips() const IOFA_EXCLUDES(mu_);
  /// When the current open window elapses (0 while not open) - exposed
  /// so tests can assert the jitter is deterministic per seed.
  Seconds open_deadline() const IOFA_EXCLUDES(mu_);

 private:
  void trip_locked(Seconds now) IOFA_REQUIRES(mu_);

  const BreakerOptions options_;
  const std::uint64_t seed_;
  const Counters counters_;

  mutable Mutex mu_;
  State state_ IOFA_GUARDED_BY(mu_) = State::kClosed;
  int consecutive_failures_ IOFA_GUARDED_BY(mu_) = 0;
  int probes_used_ IOFA_GUARDED_BY(mu_) = 0;
  int probe_successes_ IOFA_GUARDED_BY(mu_) = 0;
  Seconds open_until_ IOFA_GUARDED_BY(mu_) = 0.0;
  std::uint64_t trips_ IOFA_GUARDED_BY(mu_) = 0;
};

}  // namespace iofa::fwd
