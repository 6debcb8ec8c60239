#pragma once
// QoS enforcement and the admission ledger.
//
// QosMetrics - the admission ledger: one row of counters per tenant
//     (qos.tenant.*, labelled by tenant name). It is the ONLY place a
//     forwarded request's terminal outcome is counted, and it exists
//     whether or not QoS is on: with QoS off the table has one row, the
//     implicit tenant 0 ("default"). Every client submission attempt
//     ends in exactly one bucket, so
//
//       qos.tenant.submitted == qos.tenant.admitted
//                             + qos.tenant.rejected
//                             + qos.tenant.expired
//                             + qos.tenant.direct_fallback
//                             + qos.tenant.failed
//
//     holds for EVERY tenant (asserted by qos_test, fwd_overload_test
//     and `iofa_queue_sim --check-accounting`). The client counts
//     submitted / rejected / direct_fallback; the daemon counts
//     admitted / expired / failed (failed stays zero unless faults
//     kill accepted work). The row also carries the token-flow view:
//     reserved/reclaimed/borrowed/lent bytes and SLO violation beats.
//
// QosEnforcer - one per ION. Owns that ION's HierarchicalTokenBucket
//     and answers class-aware admission for IonDaemon::try_submit:
//     below the saturation watermark everyone is admitted (tokens are
//     still charged, which is what keeps the lending ledger honest);
//     at or past it, best-effort is rejected first, burst traffic is
//     admitted only when the hierarchy covers it, and guaranteed
//     traffic is exempt while its reservation still has tokens.
//
// QosRuntime - one per ForwardingService: the validated TenantRegistry,
//     the shared QosMetrics, one enforcer per ION, and the SLO beat
//     (delivered bandwidth vs floor, p99 queue wait vs ceiling).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"
#include "qos/hierarchical_bucket.hpp"
#include "qos/tenant.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::qos {

/// One tenant's ledger row (all find-or-created at construction; the hot
/// path only touches lock-free cells). Copyable: a copy points at the
/// same registry cells.
struct TenantCounters {
  // The admission identity's buckets (see the header comment). Each
  // identity site makes exactly one of the on_* calls below.
  telemetry::Counter* submitted = nullptr;
  telemetry::Counter* admitted = nullptr;
  telemetry::Counter* rejected = nullptr;
  telemetry::Counter* expired = nullptr;
  telemetry::Counter* direct_fallback = nullptr;
  telemetry::Counter* failed = nullptr;
  // Byte-flow views.
  telemetry::Counter* submitted_bytes = nullptr;
  telemetry::Counter* admitted_bytes = nullptr;
  telemetry::Counter* reserved_bytes = nullptr;   ///< granted from own leaf
  telemetry::Counter* reclaimed_bytes = nullptr;  ///< own slack pulled back
  telemetry::Counter* borrowed_bytes = nullptr;   ///< granted from others
  telemetry::Counter* lent_bytes = nullptr;       ///< own slack taken by others
  telemetry::Counter* slo_violations = nullptr;   ///< SLO beat misses
  telemetry::Histogram* queue_wait_us = nullptr;

  /// A client offer of `bytes` payload to an ION (an fsync offers 0).
  void on_submitted(Bytes bytes) const {
    submitted->add();
    submitted_bytes->add(bytes);
  }
  /// A direct-PFS rescue: submitted and settled in the same step.
  void on_direct_fallback(Bytes bytes) const {
    on_submitted(bytes);
    direct_fallback->add();
  }
  void on_rejected() const { rejected->add(); }
  void on_admitted(Bytes bytes) const {
    admitted->add();
    admitted_bytes->add(bytes);
  }
  void on_expired() const { expired->add(); }
  void on_failed() const { failed->add(); }
};

class QosMetrics {
 public:
  QosMetrics(const TenantRegistry& registry, telemetry::Registry& reg);
  /// The QoS-off ledger: one row, the implicit tenant 0 ("default").
  /// Registration is find-or-create by (name, labels), so every table
  /// built against `reg` lands on the same cells.
  explicit QosMetrics(telemetry::Registry& reg);

  const TenantCounters& tenant(TenantId t) const {
    return tenants_[t < tenants_.size() ? t : kDefaultTenant];
  }
  std::size_t size() const { return tenants_.size(); }

 private:
  std::vector<TenantCounters> tenants_;
};

class QosEnforcer {
 public:
  QosEnforcer(const TenantRegistry& registry, QosMetrics& metrics);

  /// Class-aware admission for one data request of `bytes` payload;
  /// `saturated` is the daemon's admission verdict
  /// (SaturationTracker::rejects). Consumes tokens on admit; a rejected
  /// request consumes none.
  bool admit(TenantId t, Bytes bytes, bool saturated, Seconds now);

  /// Per-tenant ingest wait (tolerates out-of-range ids -> tenant 0).
  void observe_wait(TenantId t, double wait_us);

  /// Fraction of everything this ION granted that was borrowed slack -
  /// load that vanishes the moment lenders reclaim, which is why the
  /// arbiter's load hint discounts it (IonDaemon::load_hint_score).
  double sheddable_fraction() const;

  /// Move the HTB's lender-side ledger into qos.tenant.lent_bytes
  /// (delta since the last publish; called from the SLO beat).
  void publish_lending();

  HierarchicalTokenBucket& htb() { return htb_; }
  const TenantRegistry& registry() const { return registry_; }

 private:
  void record_grant(TenantId t, const HierarchicalTokenBucket::Grant& g);

  const TenantRegistry& registry_;
  QosMetrics& metrics_;
  HierarchicalTokenBucket htb_;
  std::atomic<double> granted_total_{0.0};
  std::atomic<double> granted_borrowed_{0.0};
  std::vector<double> lent_published_;  ///< per tenant, beat-serialised
};

class QosRuntime {
 public:
  /// `ion_capacity`: one ION's ingest bandwidth (every enforcer's HTB
  /// root). Throws std::invalid_argument on invalid options.
  QosRuntime(QosOptions options, double ion_capacity, int ion_count,
             telemetry::Registry& reg);

  QosEnforcer* enforcer(int ion) {
    return enforcers_[static_cast<std::size_t>(ion)].get();
  }
  const TenantRegistry& registry() const { return registry_; }
  QosMetrics& metrics() { return metrics_; }

  /// Tenant a job maps onto (by app label); kDefaultTenant if unnamed.
  TenantId tenant_of(const std::string& app_label) const {
    return registry_.find(app_label);
  }

  /// One SLO scoring pass at time `now` (seconds on any monotonic
  /// timeline; only deltas matter). For each tenant with a bandwidth
  /// floor: a violation beat when offered load met the floor but
  /// delivered bandwidth did not. For each tenant with a wait ceiling:
  /// a violation beat when the p99 ingest wait exceeds it. Also
  /// publishes the lending ledger.
  void slo_beat(Seconds now) IOFA_EXCLUDES(beat_mu_);

 private:
  struct BeatState {
    Seconds at = 0.0;
    std::vector<std::uint64_t> submitted_bytes;
    std::vector<std::uint64_t> admitted_bytes;
    bool primed = false;
  };

  TenantRegistry registry_;
  QosMetrics metrics_;
  std::vector<std::unique_ptr<QosEnforcer>> enforcers_;
  Mutex beat_mu_;
  BeatState beat_ IOFA_GUARDED_BY(beat_mu_);
};

}  // namespace iofa::qos
