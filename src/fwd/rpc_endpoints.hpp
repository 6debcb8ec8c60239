#pragma once
// Frame endpoints for the Client <-> IonDaemon and * <-> MappingStore
// links: the stubs (client side) and servers (daemon side) that turn
// the port calls of fwd/ports.hpp into versioned frames over any
// rpc::Transport.
//
// Delivery discipline (the accounting identity depends on it):
//
//   * One answer per request: every submit is answered by exactly one
//     SubmitResponse - the completion its continuation ships (inline on
//     the daemon worker or flusher that settles it, or on this server's
//     reader when it dispatched the request itself; nothing polls), or
//     kRejected when the daemon refused the offer (busy or down; the
//     server answers even while its daemon is crashed). A fresh
//     accepted request sends nothing until it settles.
//   * Submits are AT-LEAST-ONCE, driven by the waiter: issue() sends
//     once; wait() waits in ack_timeout slices, paced by the seeded
//     retry_backoff, and resends the SAME request id until the response
//     lands.
//   * The server keeps a dedup window of request ids. A duplicate of a
//     settled id replays the cached response, so a lost response costs
//     one resend, not a request timeout. A duplicate of an accepted but
//     unsettled id gets an empty SubmitAck ("held"); one that arrives
//     while the original is still being offered gets nothing. A dup or
//     resend never reaches the daemon twice (rpc.dedup_hits counts the
//     absorbed copies).
//   * Handoff rule: past the request timeout, wait() returns the
//     response if one arrives and gives up only once a held ack said
//     the ION has the request. Until an answer comes it resends at once
//     and waits for one, so an offer that never reached the ION is never
//     abandoned and every qos.tenant.submitted finds its bucket. The
//     shim re-offers a timed-out attempt under a NEW id, which the
//     daemon terminally counts once more - the same semantics a
//     timed-out in-proc attempt has.
//   * Leader/follower receive: a client side is read by its waiters.
//     While nobody else receives, a waiter with an unsettled call leads
//     and reads frames, settling whichever calls they answer; the rest
//     sleep on their WaitSlot (rpc.follower_waits) until their answer
//     is read for them or a leaving waiter wakes one of them to lead.
//     With no waiter nothing is read: late answers wait in the socket
//     for the next waiter, or for ForwardingService::shutdown(), which
//     reads every ION link until it closes.
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
#include "fwd/wait_slot.hpp"
#include "rpc/codec.hpp"
#include "rpc/options.hpp"
#include "rpc/transport.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {

class ForwardingService;

/// The leader/follower receive above, shared by both client stubs. On
/// a transport that pushes frames nobody leads: waiters just sleep.
class LinkReceiver {
 public:
  /// Installs `handler` on the client side of `transport`.
  LinkReceiver(rpc::Transport& transport, rpc::Transport::Handler handler,
               telemetry::Counter& follower_waits);

  /// Wait until `settled()` holds or `until` passes; true when settled.
  /// Completing or nudging `slot` wakes a sleeping waiter to look again.
  template <typename Settled>
  bool wait(WaitSlot& slot, Seconds until, Settled&& settled) {
    bool leading = false;
    for (;;) {
      const bool done = settled();
      if (!take_turn(slot, done, until, leading)) return done;
    }
  }

 private:
  /// One step of wait(): leave (false) when `done` or past `until`;
  /// else lead, receive one frame or sleep on `slot`.
  bool take_turn(WaitSlot& slot, bool done, Seconds until, bool& leading)
      IOFA_EXCLUDES(mu_);

  rpc::Transport& transport_;
  telemetry::Counter& follower_waits_;
  bool pulled_ = false;  ///< the waiters read the link (set once)
  Mutex mu_;
  bool receiving_ IOFA_GUARDED_BY(mu_) = false;  ///< a waiter leads
  std::vector<WaitSlot*> sleepers_ IOFA_GUARDED_BY(mu_);
};

/// Client-side stub for one ION link. Thread-safe: the shim's issuing
/// threads call issue() and wait() concurrently (a fresh WaitSlot per
/// issued request).
class RpcIonClient : public IonPort {
 public:
  /// `transport` and `registry` must outlive the stub. `seed` feeds the
  /// deterministic resend-backoff jitter.
  RpcIonClient(rpc::Transport& transport, int ion,
               const rpc::RpcOptions& options, std::uint64_t seed,
               telemetry::Registry* registry = nullptr);

  /// `mode` is ignored: the server's reader decides inline dispatch.
  void issue(FwdRequest req, SubmitMode mode = SubmitMode::kQueue) override
      IOFA_EXCLUDES(mu_);
  std::optional<Completion> wait(WaitSlot& slot, Seconds timeout) override
      IOFA_EXCLUDES(mu_);

  /// Calls whose response has not arrived and whose waiter has not
  /// timed out.
  std::size_t pending_calls() IOFA_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return pending_.size();
  }

 private:
  struct PendingCall {
    std::shared_ptr<CompletionSink> done;
    Payload payload;  ///< read destination (response data copies here)
    std::vector<std::byte> frame;  ///< the request, for wait()'s resends
    bool held = false;  ///< a SubmitAck said the ION holds it
    WaitSlot* waiter = nullptr;  ///< its waiter's slot, nudged when held
  };

  void on_frame(std::vector<std::byte> frame) IOFA_EXCLUDES(mu_);

  rpc::Transport& transport_;
  const rpc::RpcOptions options_;
  const std::uint64_t seed_;
  std::atomic<std::uint64_t> next_id_{1};
  Mutex mu_;
  std::unordered_map<std::uint64_t, PendingCall> pending_
      IOFA_GUARDED_BY(mu_);
  /// The request id of each pending call, by its continuation.
  std::unordered_map<const CompletionSink*, std::uint64_t> ids_
      IOFA_GUARDED_BY(mu_);
  telemetry::Counter* retries_ctr_ = nullptr;       ///< rpc.retries
  telemetry::Counter* frames_sent_ctr_ = nullptr;   ///< rpc.frames_sent
  telemetry::Counter* frames_recv_ctr_ = nullptr;   ///< rpc.frames_recv
  telemetry::Counter* codec_errors_ctr_ = nullptr;  ///< rpc.codec_errors
  LinkReceiver receiver_;  ///< last: its handler reaches the members above
};

/// Daemon-side server for one ION link: decodes submits, dedups and
/// offers them to the daemon; each request's continuation ships its one
/// response - when the daemon completes it, or at once on a refusal.
class RpcIonServer {
 public:
  RpcIonServer(rpc::Transport& transport, ForwardingService& service,
               int ion, telemetry::Registry* registry = nullptr);
  /// Waits until every accepted request has shipped its response and
  /// the handler that offered it has returned.
  ~RpcIonServer();

 private:
  class ResponseSink;

  struct DedupEntry {
    bool accepted = false;  ///< the daemon holds it: a resend gets "held"
    /// The one answer, once shipped (null until then). Shared with the
    /// send that shipped it, never copied - it may carry read data.
    std::shared_ptr<const std::vector<std::byte>> response;
  };

  void on_frame(std::vector<std::byte> frame) IOFA_EXCLUDES(mu_);
  /// Continuation body: cache the response frame, then send it.
  void respond(std::uint64_t id,
               std::shared_ptr<const std::vector<std::byte>> frame)
      IOFA_EXCLUDES(mu_);
  void evict_locked() IOFA_REQUIRES(mu_);

  rpc::Transport& transport_;
  ForwardingService& service_;
  const int ion_;
  Mutex mu_;
  std::unordered_map<std::uint64_t, DedupEntry> dedup_ IOFA_GUARDED_BY(mu_);
  /// Answered ids in answer order - the eviction queue. Ids whose
  /// response is still pending are not in here and never evicted.
  std::deque<std::uint64_t> terminal_order_ IOFA_GUARDED_BY(mu_);
  /// Two per offered request: one until its response is sent, one
  /// until on_frame() returns from offering it (an inline write is
  /// flushed on the reader after its response went out).
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
    WaitSlot slot;  ///< completed when the reply lands
  };

  void on_frame(std::vector<std::byte> frame) IOFA_EXCLUDES(mu_);
  /// Send `frame` and wait one ack timeout for the reply to `id`; true
  /// when the matching reply arrived.
  bool round_trip(std::uint64_t id, std::span<const std::byte> frame,
                  Waiter* waiter) IOFA_EXCLUDES(mu_);

  rpc::Transport& transport_;
  const rpc::RpcOptions options_;
  std::atomic<std::uint64_t> next_id_{1};
  Mutex mu_;
  std::unordered_map<std::uint64_t, Waiter*> waiters_ IOFA_GUARDED_BY(mu_);
  telemetry::Counter* retries_ctr_ = nullptr;
  telemetry::Counter* frames_sent_ctr_ = nullptr;
  telemetry::Counter* frames_recv_ctr_ = nullptr;
  telemetry::Counter* codec_errors_ctr_ = nullptr;
  LinkReceiver receiver_;
};

/// Store-side server: answers gets (idempotent, re-executed on dup)
/// and applies publishes exactly once per request id (a chaos-dup'd
/// publish frame must not consume a second mapping.publish fault
/// event).
class RpcMappingServer {
 public:
  RpcMappingServer(rpc::Transport& transport, MappingStore& store,
                   telemetry::Registry* registry = nullptr);

 private:
  void on_frame(std::vector<std::byte> frame);
  void evict_locked() IOFA_REQUIRES(mu_);

  rpc::Transport& transport_;
  MappingStore& store_;
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
