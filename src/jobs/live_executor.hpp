#pragma once
// Live execution of a FIFO job queue on the GekkoFWD runtime: real
// client threads move real requests through ION daemons into the
// emulated PFS while the arbiter re-maps forwarding nodes as jobs start
// and finish. This is the Section 5.3 experiment.

#include <memory>
#include <vector>

#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "fault/clock.hpp"
#include "fwd/health.hpp"
#include "fwd/overload.hpp"
#include "fwd/replayer.hpp"
#include "fwd/service.hpp"
#include "platform/profile.hpp"
#include "qos/tenant.hpp"
#include "rpc/options.hpp"
#include "workload/kernels.hpp"

namespace iofa::jobs {

struct LiveExecutorOptions {
  int compute_nodes = 96;
  int pool = 12;
  std::optional<double> static_ratio;
  bool reallocate_running = true;
  /// Strip the 0-ION option from every curve: platforms where compute
  /// nodes cannot reach the PFS directly (the Fig. 9 setup).
  bool forbid_direct = false;
  int threads_per_job = 4;
  fwd::ReplayOptions replay;
  Seconds poll_period = 0.02;  ///< client mapping poll (paper: 10 s)
  /// Fault drills: when set, the clock is armed as the run starts so a
  /// plan's `at <sec>` events count from first job submission (the
  /// caller builds the FaultInjector against this clock and hands it to
  /// the ForwardingService).
  fault::WallFaultClock* fault_clock = nullptr;
  /// > 0 starts a HealthMonitor for the run: daemon deaths feed the
  /// arbiter (failure re-solve + republish) at this sampling period.
  Seconds health_period = 0.0;
  /// Per-sub-request client timeout (0 = wait forever). Needed for
  /// failover under crash drills: a client blocked on a dead ION's
  /// promise otherwise never rotates to a live one.
  Seconds request_timeout = 0.0;
  /// Dispatch shards per ION daemon (IonParams::workers).
  /// live_service_config() mirrors it into the ServiceConfig; 1 = the
  /// serial legacy pipeline, byte-identical under fault-seed replay.
  int workers_per_ion = 1;

  // --- overload control (PR 5) ----------------------------------------
  /// Client submission attempts per sub-request before the direct-PFS
  /// rescue (ClientConfig::max_attempts).
  int max_attempts = 4;
  /// Client retry backoff schedule (base / ceiling / growth).
  fault::BackoffPolicy client_backoff = {};
  /// ION admission control; live_service_config() mirrors it into
  /// IonParams::admission.
  fwd::AdmissionOptions admission = {};
  /// Per-ION client circuit breakers (ClientConfig::breaker). Requires
  /// request_timeout > 0: a breaker fed only by submissions would never
  /// see a slow ION fail.
  fwd::BreakerOptions breaker = {};
  /// Bandwidth cap (bytes/s) on the shared direct-PFS degradation path;
  /// 0 = uncapped (ServiceConfig::fallback_bandwidth).
  double fallback_bandwidth = 0.0;

  // --- rpc transport (PR 10) -------------------------------------------
  /// Transport carrying the Client <-> ION and mapping links
  /// (ServiceConfig::transport). kAuto resolves IOFA_TRANSPORT and
  /// defaults to in-proc, so every scenario/tool runs over any
  /// transport unchanged.
  rpc::TransportKind transport = rpc::TransportKind::kAuto;
  /// Framed-transport knobs (ack timeout, resend backoff); validated
  /// by validate_live_options().
  rpc::RpcOptions rpc;

  // --- multi-tenant QoS (PR 6) -----------------------------------------
  /// Tenant table: priority classes, reservations and per-job SLOs.
  /// Jobs are matched to tenants by app label (unknown labels account
  /// under the default best-effort tenant). Requires admission.enabled:
  /// class-aware admission replaces the plain watermark rejection, so
  /// without a saturation signal the classes would never differ.
  /// Validated by validate_live_options(), same contract as the
  /// overload knobs.
  qos::QosOptions qos;
};

struct LiveJobResult {
  core::JobId id = 0;
  std::string label;
  fwd::ReplayResult replay;
  Seconds started = 0.0;
  Seconds finished = 0.0;
};

struct LiveRunResult {
  std::vector<LiveJobResult> jobs;
  Seconds makespan = 0.0;
  MBps aggregate_bw() const;  ///< Equation 2
};

/// Canonical live-runtime service wiring (the fault-drill tool and the
/// scenario tests share it): `options.pool` daemons, accounting-only
/// data path, and `options.workers_per_ion` dispatch shards per daemon.
fwd::ServiceConfig live_service_config(
    const LiveExecutorOptions& options,
    fault::FaultInjector* injector = nullptr);

/// Reject nonsensical option combinations (zero timeout with breakers,
/// negative retry budget, inverted backoff bounds, ...) with
/// std::invalid_argument before any thread or daemon is started.
/// run_queue_live() calls this on entry; tools call it right after flag
/// parsing so a bad flag dies with a message instead of a hang.
void validate_live_options(const LiveExecutorOptions& options);

/// Run `queue` on `service` under `policy`. Curves in `profiles` feed
/// the arbitration decisions (the estimates MCKP consumes); achieved
/// bandwidth is measured from the actual run.
LiveRunResult run_queue_live(const std::vector<workload::AppSpec>& queue,
                             const platform::ProfileDB& profiles,
                             std::shared_ptr<core::ArbitrationPolicy> policy,
                             fwd::ForwardingService& service,
                             const LiveExecutorOptions& options);

}  // namespace iofa::jobs
