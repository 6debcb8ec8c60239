#pragma once
// The RPC boundary's client-side seams. A Client talks to its IONs
// through IonPort and to the MappingStore through MappingPort; the
// direct implementations below ARE today's in-process behaviour (one
// virtual call, zero frames, so rpc.* fault sites are never checked),
// while the Rpc* endpoints (fwd/rpc_endpoints.hpp) put the same calls
// behind versioned frames over an interchangeable transport.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/arbiter.hpp"
#include "fwd/daemon.hpp"
#include "fwd/wait_slot.hpp"

namespace iofa::fwd {

class MappingStore;

/// Offering requests to one ION daemon. A forwarded request gets one
/// answer, its Completion: issue() completes `req.done` exactly once
/// whatever happens to the offer, a refusal at admission included
/// (kRejected - the ION holds nothing of it). `mode` kInlineWhenIdle
/// says the caller has nothing to do but wait for this request (or for
/// the other markers of one fsync, each offered before any is waited
/// for), so an in-proc ION may serve it on the calling thread: stage a
/// write and then flush it, or complete a marker whose barrier is met.
/// It may have completed the request when issue() returns. A remote
/// ION's server decides that itself, on its reader thread.
class IonPort {
 public:
  virtual ~IonPort() = default;
  virtual void issue(FwdRequest req, SubmitMode mode = SubmitMode::kQueue) = 0;
  /// Wait for the completion of an issued request whose `done` is
  /// `slot`; `timeout` 0 waits for it however long it takes. nullopt
  /// means the wait timed out while the ION held the request (it still
  /// settles there, into the orphaned slot) and the port has already
  /// released everything it kept for the call.
  virtual std::optional<Completion> wait(WaitSlot& slot,
                                         Seconds timeout) = 0;
};

/// One coherent read of a client's mapping entry: the job's ION list
/// (when found) plus the store epoch observed right after the lookup.
struct MappingSnapshot {
  std::uint64_t epoch = 0;
  bool found = false;
  std::vector<int> ions;
};

/// The MappingStore seam. fetch() distinguishes "the store answered
/// and the job has no entry" (found == false; the client goes direct)
/// from "the store is unreachable" (nullopt; the client keeps its
/// cached view - a stale mapping beats flapping to direct mode during
/// a link outage). publish() returning false means the mapping was
/// lost in flight: the same dropped-publish semantics the
/// HealthMonitor already self-heals.
class MappingPort {
 public:
  virtual ~MappingPort() = default;
  virtual std::optional<MappingSnapshot> fetch(core::JobId job) = 0;
  virtual bool publish(const core::Mapping& mapping) = 0;
};

/// In-proc: IonDaemon::try_submit in the caller's mode, with a refusal
/// completed inline.
class DirectIonPort : public IonPort {
 public:
  explicit DirectIonPort(IonDaemon& daemon) : daemon_(daemon) {}
  void issue(FwdRequest req, SubmitMode mode = SubmitMode::kQueue) override {
    const std::shared_ptr<CompletionSink> done = req.done;
    if (daemon_.try_submit(std::move(req), mode) != SubmitResult::kAccepted) {
      done->complete({CompletionStatus::kRejected, 0});
    }
  }
  std::optional<Completion> wait(WaitSlot& slot, Seconds timeout) override {
    return timeout > 0.0 ? slot.wait_for(timeout) : slot.wait();
  }

 private:
  IonDaemon& daemon_;
};

/// In-proc: the lookup-then-epoch read order ClientMappingView always
/// used (so the in-proc counter dumps stay byte-identical). The
/// const-store flavour is read-only: publish() reports the mapping as
/// lost (only client views hold one, and views never publish).
class DirectMappingPort : public MappingPort {
 public:
  explicit DirectMappingPort(MappingStore& store)
      : store_(&store), writable_(&store) {}
  explicit DirectMappingPort(const MappingStore& store)
      : store_(&store), writable_(nullptr) {}
  std::optional<MappingSnapshot> fetch(core::JobId job) override;
  bool publish(const core::Mapping& mapping) override;

 private:
  const MappingStore* store_;
  MappingStore* writable_;
};

}  // namespace iofa::fwd
