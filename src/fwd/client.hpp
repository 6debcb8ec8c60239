#pragma once
// GekkoFWD client shim: the per-job interception layer. In the real
// system this is the syscall-intercepting GekkoFS client; here it is the
// API the workload kernels call. Every operation consults the cached
// mapping view: with an empty ION list it goes straight to the PFS,
// otherwise it is forwarded to ONE of the job's assigned IONs, selected
// by hashing the file's path (GekkoFWD semantics - all traffic of a file
// goes through a single ION while the mapping holds).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/clock.hpp"

#include "common/units.hpp"
#include "fault/backoff.hpp"
#include "fwd/mapping.hpp"
#include "fwd/overload.hpp"
#include "fwd/request.hpp"
#include "fwd/service.hpp"
#include "telemetry/metrics.hpp"
#include "trace/record.hpp"

namespace iofa::fwd {

/// How the shim routes I/O:
///   Forwarding  - GekkoFWD: traffic is chunk-hashed across the job's
///                 ASSIGNED IONs only (GekkoFS distribution restricted
///                 to the mapped subset), falling back to direct PFS
///                 access when unmapped;
///   BurstBuffer - native GekkoFS: chunks scatter across ALL daemons,
///                 regardless of the mapping.
enum class ClientMode { Forwarding, BurstBuffer };

struct ClientConfig {
  core::JobId job = 0;
  std::string app_label;
  /// Logical client processes each issuing thread stands for.
  double stream_weight = 1.0;
  /// Mapping poll period (the paper's default is 10 s on real clusters).
  Seconds poll_period = 0.05;
  ClientMode mode = ClientMode::Forwarding;

  // --- failure handling ------------------------------------------------
  /// Per-sub-request completion timeout; 0 waits forever. A timed-out
  /// request is abandoned and retried elsewhere - positional I/O is
  /// idempotent, so a late completion of the abandoned copy is
  /// harmless. Over a framed transport the wait ends only once the ION
  /// answered for the request (rpc_endpoints.hpp), so an offer lost on
  /// the wire is resent rather than abandoned.
  Seconds request_timeout = 0.0;
  /// Submission attempts per sub-request (rotating through the IONs of
  /// the current mapping epoch) before falling back to direct PFS.
  int max_attempts = 4;
  fault::BackoffPolicy backoff = {};
  /// Seed for deterministic retry jitter (mixed with request identity).
  std::uint64_t retry_seed = 0;
  /// Per-ION circuit breakers: consecutive IonBusy/timeout outcomes
  /// open an ION's breaker and route its traffic to the rate-limited
  /// direct-PFS path until half-open probes succeed. Jitter seeds mix
  /// retry_seed with the ION id, so replay stays deterministic.
  BreakerOptions breaker = {};
  /// QoS tenant every request of this shim accounts under (index into
  /// the service's TenantRegistry; resolved from the app label by the
  /// live executor). 0 = default best-effort tenant.
  std::uint32_t tenant = 0;
  /// Metrics destination; nullptr means telemetry::Registry::global().
  telemetry::Registry* registry = nullptr;
};

class Client {
 public:
  Client(ClientConfig config, ForwardingService& service);

  /// Attach a trace log; all subsequent operations are recorded.
  void set_trace(std::shared_ptr<trace::TraceLog> log) {
    trace_ = std::move(log);
  }

  /// Positional write. `data` may be empty in accounting-only mode.
  /// Returns bytes written. Thread-safe. Requests spanning multiple
  /// 512 KiB chunks are split and scattered per the routing mode.
  std::size_t pwrite(std::uint32_t rank, const std::string& path,
                     std::uint64_t offset, std::uint64_t size,
                     std::span<const std::byte> data = {});

  /// Positional read into `out` (or accounting-only when empty).
  std::size_t pread(std::uint32_t rank, const std::string& path,
                    std::uint64_t offset, std::uint64_t size,
                    std::span<std::byte> out = {});

  /// Flush a file's forwarded writes to the PFS and wait: the job's
  /// IONs and every ION that acknowledged a write of this client since
  /// its last fsync (a remap may have taken one out of the mapping)
  /// each get a marker, all offered before any is waited for.
  void fsync(const std::string& path);

  /// Force a mapping refresh (tests; normally polling suffices).
  void refresh_mapping() { view_.refresh_now(); }

  std::uint64_t forwarded_ops() const { return forwarded_ops_.load(); }
  std::uint64_t direct_ops() const { return direct_ops_.load(); }

  const ClientConfig& config() const { return config_; }
  ForwardingService& service() { return service_; }

  /// The ION's circuit breaker (null when breakers are disabled).
  const CircuitBreaker* breaker(int ion) const {
    return breakers_.empty() ? nullptr
                             : breakers_[static_cast<std::size_t>(ion)].get();
  }

 private:
  /// Chunk the request and scatter it across `targets` by (path, chunk)
  /// hash (GekkoFS distribution). Returns bytes transferred.
  std::size_t scatter(std::uint32_t rank, FwdOp op, const std::string& path,
                      std::uint64_t offset, std::uint64_t size,
                      std::span<const std::byte> wdata,
                      std::span<std::byte> rdata,
                      const std::vector<int>& targets);
  std::vector<int> all_daemons() const;
  Seconds now() const;
  void record(std::uint32_t rank, trace::OpKind op, const std::string& path,
              std::uint64_t offset, std::uint64_t size, Seconds t0,
              Seconds t1);

  // Breaker plumbing (no-ops while breakers are disabled).
  bool breaker_allow(int ion);
  void breaker_success(int ion);
  void breaker_failure(int ion);

  /// Direct PFS write that owns durability: retries through injected
  /// dispatch errors until the write lands.
  void direct_write_pfs(const std::string& path, std::uint64_t offset,
                        std::uint64_t size, std::span<const std::byte> data);

  ClientConfig config_;
  ForwardingService& service_;
  ClientMappingView view_;
  std::shared_ptr<trace::TraceLog> trace_;
  iofa::MonotonicClock::time_point epoch_;
  std::atomic<std::uint64_t> forwarded_ops_{0};
  std::atomic<std::uint64_t> direct_ops_{0};
  telemetry::Counter* forwarded_ctr_ = nullptr;
  telemetry::Counter* direct_ctr_ = nullptr;
  telemetry::Counter* bytes_ctr_ = nullptr;
  telemetry::Counter* retries_ctr_ = nullptr;    ///< "fwd.retries"
  telemetry::Counter* failover_ctr_ = nullptr;   ///< "fwd.failovers"
  /// Heap payload fallbacks (slab pool dry). The zero-copy proof: this
  /// stays at 0 while the pool is sized to the workload.
  telemetry::Counter* payload_allocs_ctr_ = nullptr;
  /// This client's row of the service's admission ledger
  /// (ForwardingService::ledger): its tenant's row with QoS on, the
  /// default tenant's otherwise.
  qos::TenantCounters ledger_;
  /// One breaker per ION of the service; empty while disabled.
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  /// Per ION of the service: it acknowledged a write of this client
  /// since the last fsync took the flag.
  std::unique_ptr<std::atomic<bool>[]> wrote_to_;
};

}  // namespace iofa::fwd
