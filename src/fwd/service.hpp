#pragma once
// The GekkoFWD forwarding service: the emulated PFS, the pool of ION
// daemons, and the mapping store the arbiter publishes into. One
// instance represents the forwarding deployment of a cluster; client
// shims (one per job) are created against it.

#include <memory>
#include <optional>
#include <vector>

#include "common/slab_pool.hpp"
#include "common/token_bucket.hpp"
#include "core/arbiter.hpp"
#include "fwd/daemon.hpp"
#include "fwd/mapping.hpp"
#include "fwd/pfs_backend.hpp"
#include "fwd/ports.hpp"
#include "qos/enforcer.hpp"
#include "rpc/options.hpp"

namespace iofa::fwd {

struct ServiceConfig {
  int ion_count = 4;
  PfsParams pfs;
  IonParams ion;
  /// One injector for the whole deployment; propagated into the PFS,
  /// every daemon, and the mapping store. May be null (no faults).
  fault::FaultInjector* injector = nullptr;
  /// Aggregate bandwidth cap (bytes/s) on the clients' direct-PFS
  /// degradation path, shared by every client of this deployment so an
  /// overload storm cannot stampede the PFS (the ZERO-policy route is
  /// rate-limited, not free). 0 = uncapped.
  double fallback_bandwidth = 0.0;
  /// Multi-tenant QoS: priority classes, hierarchical token borrowing
  /// and per-job SLOs. Disabled by default; validated at construction
  /// (throws std::invalid_argument, same contract as the overload
  /// knobs). Each ION gets its own enforcer rooted at ingest_bandwidth.
  qos::QosOptions qos;
  /// Payload slab pool shared by every client and daemon of this
  /// deployment (the zero-copy request path). The pool is always built;
  /// sizing it to the workload is what keeps payload_heap_allocs() at
  /// zero under the bench.
  SlabPoolConfig slab;
  /// Transport carrying the Client <-> ION and * <-> MappingStore
  /// links. kInProc is today's direct wiring (zero frames, rpc.* fault
  /// sites never checked); kTcp puts every call behind the versioned
  /// frame codec on a loopback socket. kAuto reads IOFA_TRANSPORT,
  /// defaulting to in-proc, so the whole suite runs over either
  /// transport unchanged.
  rpc::TransportKind transport = rpc::TransportKind::kAuto;
  /// Framed-transport knobs (ack timeout, resend backoff); validated
  /// at construction. Ignored by kInProc.
  rpc::RpcOptions rpc;
  /// Seed for the stubs' deterministic resend-backoff jitter.
  std::uint64_t rpc_seed = 1;
};

class ForwardingService {
 public:
  explicit ForwardingService(ServiceConfig config);
  ~ForwardingService();

  ForwardingService(const ForwardingService&) = delete;
  ForwardingService& operator=(const ForwardingService&) = delete;

  int ion_count() const { return static_cast<int>(daemons_.size()); }
  EmulatedPfs& pfs() { return *pfs_; }
  const EmulatedPfs& pfs() const { return *pfs_; }
  IonDaemon& daemon(int id) { return *daemons_[static_cast<size_t>(id)]; }

  /// The transport actually carrying this deployment's links (kAuto
  /// resolved against IOFA_TRANSPORT at construction).
  rpc::TransportKind transport() const { return transport_; }

  /// The client-side seam for ION `id`: the daemon itself in-proc, or
  /// the RPC stub whose frames cross the configured transport. Client
  /// shims submit through this, never through daemon() directly.
  IonPort& ion_port(int id) { return *ion_ports_[static_cast<size_t>(id)]; }

  /// The MappingStore seam shared by client views (fetch) and the
  /// arbiter publish path.
  MappingPort& mapping_port() { return *mapping_port_; }

  MappingStore& mapping_store() { return mapping_store_; }
  const MappingStore& mapping_store() const { return mapping_store_; }

  /// Shared rate limiter for the direct-PFS degradation path; null when
  /// fallback_bandwidth is 0 (uncapped).
  TokenBucket* fallback_limiter() { return fallback_limiter_.get(); }

  /// The QoS runtime (tenant registry, per-ION enforcers, SLO beats);
  /// null while config.qos.enabled is false.
  qos::QosRuntime* qos() { return qos_.get(); }

  /// The admission ledger every client and daemon of this deployment
  /// settles in: the QoS runtime's table, or the default-tenant table
  /// while QoS is off.
  const qos::QosMetrics& ledger() const { return *ledger_; }

  /// The deployment's payload slab pool (occupancy feeds each daemon's
  /// admission score; tests assert its acquire/release balance).
  SlabPool& slab_pool() { return *slab_pool_; }

  /// Acquire a payload buffer for a request: a slab when the pool has
  /// one, else the counted heap fallback (fwd.client.payload_allocs at
  /// the caller). Never fails.
  Payload acquire_payload(std::size_t size) {
    Payload p = slab_pool_->try_acquire(size);
    if (!p.empty() || size == 0) return p;
    return Payload::heap(size);
  }

  /// Publish a new arbitration result to the clients.
  void apply_mapping(const core::Mapping& mapping);

  /// Block until every daemon has dispatched its queue and flushed its
  /// staged data to the PFS.
  void drain();

  void shutdown();

  const ServiceConfig& config() const { return config_; }

 private:
  struct RpcLinks;  // transports + servers (framed transports only)

  /// Build the port layer: direct wiring in-proc, else one chaos-
  /// wrapped transport + server + stub per link.
  void build_ports();

  ServiceConfig config_;
  rpc::TransportKind transport_ = rpc::TransportKind::kInProc;
  std::unique_ptr<EmulatedPfs> pfs_;
  /// Built before the daemons: each IonParams carries a pointer to the
  /// pool so occupancy can back-pressure admission.
  std::unique_ptr<SlabPool> slab_pool_;
  /// Built before the daemons: each IonParams carries a pointer to its
  /// enforcer, so the runtime must outlive (and pre-date) them.
  std::unique_ptr<qos::QosRuntime> qos_;
  std::optional<qos::QosMetrics> ledger_;
  std::vector<std::unique_ptr<IonDaemon>> daemons_;
  MappingStore mapping_store_;
  std::unique_ptr<TokenBucket> fallback_limiter_;
  /// Framed-transport state (null in-proc); declared before the ports
  /// so the stubs never outlive their transports.
  std::unique_ptr<RpcLinks> rpc_;
  std::vector<std::unique_ptr<IonPort>> ion_ports_;
  std::unique_ptr<MappingPort> mapping_port_;
  bool rpc_closed_ = false;
};

}  // namespace iofa::fwd
