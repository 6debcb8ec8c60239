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

namespace iofa::fwd {

class MappingStore;

/// Offering requests to one ION daemon. Implementations keep the exact
/// try_submit contract of IonDaemon: the returned SubmitResult is the
/// admission answer, and an accepted request's `done` continuation is
/// later completed exactly once (request.hpp).
class IonPort {
 public:
  virtual ~IonPort() = default;
  virtual SubmitResult try_submit(FwdRequest req) = 0;
  /// The caller gave up waiting on `done` (request timeout): release
  /// any state held for that request. In-proc there is none.
  virtual void abandon(const CompletionSink& done) { (void)done; }
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

/// In-proc: forwards to IonDaemon::try_submit, nothing else.
class DirectIonPort : public IonPort {
 public:
  explicit DirectIonPort(IonDaemon& daemon) : daemon_(daemon) {}
  SubmitResult try_submit(FwdRequest req) override {
    return daemon_.try_submit(std::move(req));
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
