#pragma once
// The forwarded-request envelope travelling from client shims to ION
// daemons (the in-process stand-in for GekkoFS's Mercury RPCs).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/slab_pool.hpp"
#include "common/units.hpp"

namespace iofa::fwd {

enum class FwdOp : std::uint8_t { Write, Read, Fsync };

/// Terminal outcome class of a forwarded request; pinned to
/// rpc::WireStatus (static_assert in rpc_endpoints.cpp).
enum class CompletionStatus : std::uint8_t {
  kOk = 0,
  kIonDown = 1,  ///< ION crashed while holding it, or its flush was lost
  kExpired = 2,  ///< deadline passed while queued (qos.tenant.expired)
  kError = 3,    ///< any other failure reported by a peer
  kRejected = 4  ///< refused at admission (busy/down); the ION holds none
};

/// The one completion record: every way a request can end is a status
/// plus the bytes transferred. No exceptions.
struct Completion {
  CompletionStatus status = CompletionStatus::kOk;
  std::size_t value = 0;  ///< bytes transferred (kOk)
  bool ok() const { return status == CompletionStatus::kOk; }
};

/// A request's continuation. complete() runs exactly once per offered
/// request: inline on the thread that settles an accepted one, or by
/// the port that saw the refusal (kRejected). The settling thread is a
/// daemon worker or flusher, or the RPC server's reader thread when it
/// dispatched the request inline; a dispatching thread (worker or
/// reader) holds that shard's dispatch lock and no other daemon lock.
/// A continuation must not block on the daemon that runs it, nor offer
/// it a new request (that thread is the daemon's dispatch or flush
/// capacity, and may hold the shard lock the offer would need).
class CompletionSink {
 public:
  CompletionSink() = default;
  CompletionSink(const CompletionSink&) = delete;
  CompletionSink& operator=(const CompletionSink&) = delete;
  virtual ~CompletionSink() = default;
  virtual void complete(Completion c) = 0;
};

struct FwdRequest {
  FwdOp op = FwdOp::Write;
  /// File path, consumed at the submit boundary: the daemon interns it
  /// into its id ↔ path table and clears this field, so queue hops and
  /// flush items carry only file_id (no per-hop string allocation). May
  /// be empty when the daemon is known to have the id interned already.
  std::string path;
  std::uint64_t file_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  /// Write payload / read destination: a refcounted slab handle (or the
  /// counted heap fallback). Empty in accounting-only mode: the bytes
  /// are charged and tracked but never materialised.
  Payload payload;
  /// Completed once the daemon finishes the request (for writes: once
  /// staged; durability comes from Fsync), or with kRejected when the
  /// ION refuses the offer.
  std::shared_ptr<CompletionSink> done;
  /// Stamped by IonDaemon::try_submit (monotonic_micros) on EVERY
  /// enqueue — including re-submissions after failover — so the ingest
  /// queue wait is observable per attempt; 0 = not stamped.
  std::uint64_t queued_us = 0;
  /// Absolute deadline (monotonic_micros) derived from the client's
  /// request timeout; the daemon drops the request at dequeue once it
  /// has passed (counted in qos.tenant.expired, completing `done`
  /// with kExpired). 0 = no deadline.
  std::uint64_t deadline_us = 0;
  /// QoS tenant id (qos::TenantId; index into the service's
  /// TenantRegistry). 0 = the default best-effort tenant; every request
  /// accounts under exactly one tenant so the per-tenant overload
  /// identity holds. Ignored while QoS is disabled.
  std::uint32_t tenant = 0;
};

}  // namespace iofa::fwd
