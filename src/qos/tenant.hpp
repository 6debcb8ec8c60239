#pragma once
// Multi-tenant QoS model for the forwarding layer: priority classes and
// per-job SLOs.
//
// The arbiter assigns ION counts per job but treats every job as an
// equal citizen; this registry is where jobs stop being equal. A tenant
// is a named traffic class a job maps onto (usually one tenant per app
// label), carrying
//
//   - a priority class (the admission lattice):
//       Guaranteed  - holds a bandwidth reservation and is exempt from
//                     saturation rejection while its reservation still
//                     has tokens;
//       Burst       - holds a reservation, but past the saturation
//                     watermark it is admitted only when the token
//                     hierarchy covers the request (reserve or borrowed
//                     slack);
//       BestEffort  - no reservation; soaks up idle capacity below the
//                     watermark and is rejected first under saturation.
//   - a per-ION bandwidth reservation (the leaf refill rate of the
//     qos::HierarchicalTokenBucket), and
//   - SLOs (a delivered-bandwidth floor and a p99 ingest-queue-wait
//     ceiling) that qos.tenant.slo_violations beats are scored against.
//
// Tenant 0 always exists: the implicit best-effort "default" tenant
// every untagged request accounts under, so the per-tenant accounting
// identity (overload.hpp, extended per tenant) holds for every request
// the stack ever sees.

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace iofa::qos {

enum class PriorityClass : std::uint8_t { Guaranteed, Burst, BestEffort };

std::string to_string(PriorityClass c);

/// Index into the TenantRegistry; travels on FwdRequest / SchedRequest.
using TenantId = std::uint32_t;

inline constexpr TenantId kDefaultTenant = 0;

struct TenantSpec {
  /// Label value of the tenant's qos.tenant.* metrics; jobs are matched
  /// to tenants by app label (QosRuntime::tenant_of).
  std::string name;
  PriorityClass klass = PriorityClass::BestEffort;
  /// Reserved bandwidth (bytes/s) at EVERY ION - the refill rate of the
  /// tenant's leaf bucket. Must be 0 for BestEffort and > 0 for
  /// Guaranteed.
  double reserved_bandwidth = 0.0;
  /// Leaf bucket depth (bytes); 0 = 50 ms of the reservation, floored
  /// at 1 MiB.
  double burst = 0.0;
  // --- SLOs (scored by QosRuntime::slo_beat) ---------------------------
  /// Delivered-bandwidth floor (MB/s). A beat counts a violation only
  /// when offered load met the floor but delivered bandwidth did not
  /// (an idle tenant cannot violate its own floor). Requires a
  /// reservation (unprovable for best-effort traffic).
  MBps min_bandwidth = 0.0;
  /// p99 ingest-queue-wait ceiling; 0 = no latency SLO.
  Seconds max_queue_wait = 0.0;

  double effective_burst() const {
    if (burst > 0.0) return burst;
    const double horizon = reserved_bandwidth * 0.050;
    return horizon > 1048576.0 ? horizon : 1048576.0;
  }
};

/// QoS knobs, configured through LiveExecutorOptions / ServiceConfig
/// and validated like the overload knobs (std::invalid_argument before
/// any thread starts).
struct QosOptions {
  /// Off by default: the forwarding stack is byte-identical with the
  /// pre-QoS runtime while disabled.
  bool enabled = false;
  std::vector<TenantSpec> tenants;
  /// Depth of the lendable slack pool, as seconds of root (ION)
  /// capacity: an idle lender can have at most this much refill
  /// outstanding in the pool, which bounds how long a reactivating
  /// lender waits to be made whole again.
  Seconds pool_horizon = 0.050;
};

/// Reject nonsensical tenant tables with std::invalid_argument:
/// duplicate/empty names, a guaranteed tenant without a reservation, a
/// best-effort tenant with one, SLOs on classes that cannot honour
/// them, a non-positive pool horizon. Capacity fit (the sum of
/// reservations against the ION capacity) is checked where the capacity
/// is known: TenantRegistry construction.
void validate_qos_options(const QosOptions& options);

/// Immutable, validated tenant table. Index 0 is the implicit
/// best-effort "default" tenant; configured tenants follow in spec
/// order at ids 1..size()-1.
class TenantRegistry {
 public:
  /// `root_capacity`: one ION's ingest bandwidth (bytes/s). Throws
  /// std::invalid_argument when the options are invalid or the summed
  /// reservations exceed it.
  TenantRegistry(QosOptions options, double root_capacity);

  std::size_t size() const { return specs_.size(); }
  const TenantSpec& spec(TenantId id) const {
    return specs_[id < specs_.size() ? id : kDefaultTenant];
  }
  /// Tenant id for a name (app label); kDefaultTenant when unknown.
  TenantId find(const std::string& name) const;

  double root_capacity() const { return root_capacity_; }
  const QosOptions& options() const { return options_; }
  /// Dequeue weight of a class in the tenant-weighted AGIOS decorator
  /// (virtual-time weighted fair queueing): 100 / 10 / 1.
  static double class_weight(PriorityClass c);

 private:
  QosOptions options_;
  std::vector<TenantSpec> specs_;
  double root_capacity_ = 0.0;
};

}  // namespace iofa::qos
