#pragma once
// Frame endpoints for the Client <-> IonDaemon and * <-> MappingStore
// links: the stubs (client side) and servers (daemon side) that turn
// the port calls of fwd/ports.hpp into versioned frames over any
// rpc::Transport.
//
// Delivery discipline (the accounting identity depends on it):
//
//   * Submits are AT-LEAST-ONCE: the stub resends the SAME request id
//     until a SubmitAck arrives. Resends are unbounded on purpose - a
//     bounded give-up after the server accepted (but every ack was
//     lost) would double-count the offer once the client re-submitted
//     it under a new id. The server always answers (kDown even while
//     its daemon is crashed), so resends terminate for any plan that
//     eventually lets one ack frame through.
//   * The server keeps a dedup window of answered request ids and
//     replays the CACHED ack/response for a duplicate - a dup or
//     resend can never reach the daemon twice (rpc.dedup_hits counts
//     the absorbed copies).
//   * A LOST SubmitResponse surfaces as the client's request timeout;
//     the shim abandons the attempt (the stub drops its entry) and
//     re-offers under a NEW id, which the daemon terminally counts once
//     more - the same semantics a timed-out in-proc attempt always had.
//   * Responses are sent by the request's continuation, inline on the
//     daemon worker or flusher that settles it; nothing polls for
//     completions.
//   * Mapping fetch/publish use BOUNDED attempts: giving up is safe
//     (a lost publish is the dropped-mapping-file scenario the
//     HealthMonitor self-heals; a failed fetch keeps the cached view).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "fwd/ports.hpp"
#include "rpc/codec.hpp"
#include "rpc/options.hpp"
#include "rpc/transport.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {

class ForwardingService;

/// Client-side stub for one ION link. Thread-safe: the shim's issuing
/// threads call try_submit concurrently.
class RpcIonClient : public IonPort {
 public:
  /// `transport` and `registry` must outlive the stub. `seed` feeds the
  /// deterministic resend-backoff jitter.
  RpcIonClient(rpc::Transport& transport, int ion,
               const rpc::RpcOptions& options, std::uint64_t seed,
               telemetry::Registry* registry = nullptr);

  SubmitResult try_submit(FwdRequest req) override;
  /// Drop an abandoned call's entry (and its read slab).
  void abandon(const CompletionSink& done) override IOFA_EXCLUDES(mu_);

  /// Calls whose response has not arrived and that were not abandoned.
  std::size_t pending_calls() IOFA_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return pending_.size();
  }

 private:
  struct PendingCall {
    std::shared_ptr<CompletionSink> done;
    Payload payload;  ///< read destination (response data copies here)
    std::optional<rpc::WireSubmitResult> ack;
  };

  void on_frame(std::vector<std::byte> frame) IOFA_EXCLUDES(mu_);

  rpc::Transport& transport_;
  const rpc::RpcOptions options_;
  const std::uint64_t seed_;
  std::atomic<std::uint64_t> next_id_{1};
  Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::uint64_t, PendingCall> pending_
      IOFA_GUARDED_BY(mu_);
  telemetry::Counter* retries_ctr_ = nullptr;       ///< rpc.retries
  telemetry::Counter* frames_sent_ctr_ = nullptr;   ///< rpc.frames_sent
  telemetry::Counter* frames_recv_ctr_ = nullptr;   ///< rpc.frames_recv
  telemetry::Counter* codec_errors_ctr_ = nullptr;  ///< rpc.codec_errors
};

/// Daemon-side server for one ION link: decodes submits, dedups,
/// offers to the daemon and acks; each accepted request's continuation
/// ships its response when the daemon completes it.
class RpcIonServer {
 public:
  RpcIonServer(rpc::Transport& transport, ForwardingService& service,
               int ion, const rpc::RpcOptions& options,
               telemetry::Registry* registry = nullptr);
  /// Waits until every accepted request has shipped its response.
  ~RpcIonServer();

 private:
  class ResponseSink;

  /// A replay re-encodes the ack from its result; the response frame
  /// (which may carry read data) is shared with the send that shipped
  /// it, never copied.
  struct DedupEntry {
    std::optional<rpc::WireSubmitResult> ack;  ///< unset while offered
    /// Null until the request completed.
    std::shared_ptr<const std::vector<std::byte>> response;
    bool terminal = false;  ///< busy/down ack, or response cached
  };

  void on_frame(std::vector<std::byte> frame) IOFA_EXCLUDES(mu_);
  /// Continuation body: cache the response frame, then send it.
  void respond(std::uint64_t id,
               std::shared_ptr<const std::vector<std::byte>> frame)
      IOFA_EXCLUDES(mu_);
  void mark_terminal_locked(std::uint64_t id, DedupEntry& entry)
      IOFA_REQUIRES(mu_);
  void evict_locked() IOFA_REQUIRES(mu_);

  rpc::Transport& transport_;
  ForwardingService& service_;
  const int ion_;
  const rpc::RpcOptions options_;
  Mutex mu_;
  std::unordered_map<std::uint64_t, DedupEntry> dedup_ IOFA_GUARDED_BY(mu_);
  /// Terminal ids in completion order - the eviction queue. Ids whose
  /// response is still pending are not in here and never evicted.
  std::deque<std::uint64_t> terminal_order_ IOFA_GUARDED_BY(mu_);
  /// Accepted requests whose response has not been sent yet.
  std::size_t outstanding_ IOFA_GUARDED_BY(mu_) = 0;
  CondVar idle_cv_;
  telemetry::Counter* dedup_hits_ctr_ = nullptr;    ///< rpc.dedup_hits
  telemetry::Counter* frames_sent_ctr_ = nullptr;
  telemetry::Counter* frames_recv_ctr_ = nullptr;
  telemetry::Counter* codec_errors_ctr_ = nullptr;
};

/// Client-side stub for the MappingStore link (shared by every client
/// view of the deployment plus the publish path).
class RpcMappingClient : public MappingPort {
 public:
  RpcMappingClient(rpc::Transport& transport, const rpc::RpcOptions& options,
                   telemetry::Registry* registry = nullptr);

  std::optional<MappingSnapshot> fetch(core::JobId job) override;
  bool publish(const core::Mapping& mapping) override;

 private:
  struct Waiter {
    bool done = false;
    MappingSnapshot snap;
  };

  void on_frame(std::vector<std::byte> frame);
  /// Send `frame` under a fresh id per attempt and wait one ack
  /// timeout; true when the matching reply arrived.
  bool round_trip(std::uint64_t id, std::span<const std::byte> frame,
                  Waiter* waiter);

  rpc::Transport& transport_;
  const rpc::RpcOptions options_;
  std::atomic<std::uint64_t> next_id_{1};
  Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::uint64_t, Waiter*> waiters_ IOFA_GUARDED_BY(mu_);
  telemetry::Counter* retries_ctr_ = nullptr;
  telemetry::Counter* frames_sent_ctr_ = nullptr;
  telemetry::Counter* frames_recv_ctr_ = nullptr;
  telemetry::Counter* codec_errors_ctr_ = nullptr;
};

/// Store-side server: answers gets (idempotent, re-executed on dup)
/// and applies publishes exactly once per request id (a chaos-dup'd
/// publish frame must not consume a second mapping.publish fault
/// event).
class RpcMappingServer {
 public:
  RpcMappingServer(rpc::Transport& transport, MappingStore& store,
                   const rpc::RpcOptions& options,
                   telemetry::Registry* registry = nullptr);

 private:
  void on_frame(std::vector<std::byte> frame);
  void evict_locked() IOFA_REQUIRES(mu_);

  rpc::Transport& transport_;
  MappingStore& store_;
  const rpc::RpcOptions options_;
  Mutex mu_;
  /// Publish ids already applied (a replayed ack is re-encoded).
  std::unordered_set<std::uint64_t> published_ IOFA_GUARDED_BY(mu_);
  std::deque<std::uint64_t> publish_order_ IOFA_GUARDED_BY(mu_);
  telemetry::Counter* dedup_hits_ctr_ = nullptr;
  telemetry::Counter* frames_sent_ctr_ = nullptr;
  telemetry::Counter* frames_recv_ctr_ = nullptr;
  telemetry::Counter* codec_errors_ctr_ = nullptr;
};

}  // namespace iofa::fwd
