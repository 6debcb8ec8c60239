#pragma once
// Runtime mapping distribution: the arbiter publishes epoch-stamped
// mappings into a MappingStore; client shims keep a cached view and
// refresh it periodically (the paper's clients poll the mapping file
// every 10 s by default - the poll period here is configurable and
// usually scaled down with everything else).

#include <atomic>
#include <chrono>
#include <vector>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "core/arbiter.hpp"
#include "fault/injector.hpp"
#include "fwd/ports.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {

class MappingStore {
 public:
  /// `registry` (fwd.mapping.entries_written) defaults to
  /// telemetry::Registry::global().
  explicit MappingStore(telemetry::Registry* registry = nullptr);

  /// Fault-injection hook for the publish path (site mapping.publish);
  /// may be null. Not synchronised: set before traffic starts.
  void set_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Publish a new mapping: afterwards get() equals `mapping`. The
  /// stored mapping is patched in place, so only the entries that
  /// differ are written (and counted in fwd.mapping.entries_written).
  /// Holding the same publisher's epoch - 1, it compares only the ids
  /// in mapping.changes; any other publish walks every entry.
  /// Under fault injection a publish can be dropped (clients keep the
  /// old epoch until someone republishes - the HealthMonitor self-heals
  /// this) or corrupted (the serialized text is mangled; Mapping::parse
  /// rejects it and the store keeps the previous epoch, like a client
  /// refusing a torn mapping file).
  void publish(const core::Mapping& mapping) IOFA_EXCLUDES(mu_);

  core::Mapping get() const IOFA_EXCLUDES(mu_);
  std::uint64_t epoch() const;

  /// One job's ION list and the epoch it belongs to, read under one
  /// lock so a concurrent publish cannot pair one epoch's list with
  /// another's number. found == false: the job has no entry.
  MappingSnapshot snapshot(core::JobId job) const IOFA_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  core::Mapping mapping_ IOFA_GUARDED_BY(mu_);
  std::uint64_t publisher_ IOFA_GUARDED_BY(mu_) = 0;  ///< mapping_'s publisher
  std::atomic<std::uint64_t> epoch_{0};
  fault::FaultInjector* injector_ = nullptr;
  telemetry::Counter* entries_written_ = nullptr;
  telemetry::Counter* delta_publishes_ = nullptr;
};

/// A client's cached view of its own mapping entry. Refreshes from the
/// store at most once per poll period (checked on each access, so no
/// watcher thread is needed); refresh_now() forces it. Thread-safe:
/// issuing threads share one view, so the counters and the cached ION
/// list are read under the same lock the poller writes them under.
class ClientMappingView {
 public:
  /// View over any MappingPort (direct or an RPC stub); `port` must
  /// outlive the view. `registry` defaults to
  /// telemetry::Registry::global().
  ClientMappingView(MappingPort& port, core::JobId job,
                    Seconds poll_period,
                    telemetry::Registry* registry = nullptr);

  /// Current ION list (empty = direct access). Triggers a poll when due.
  std::vector<int> ions() IOFA_EXCLUDES(mu_);
  bool direct() { return ions().empty(); }

  void refresh_now() IOFA_EXCLUDES(mu_);
  std::uint64_t observed_epoch() const IOFA_EXCLUDES(mu_);
  std::uint64_t polls() const IOFA_EXCLUDES(mu_);
  /// Mapping epoch changes this view has observed (remap events).
  std::uint64_t remaps() const IOFA_EXCLUDES(mu_);

 private:
  void poll_locked() IOFA_REQUIRES(mu_);

  MappingPort* port_;
  core::JobId job_;
  Seconds poll_period_;
  mutable Mutex mu_;
  iofa::MonotonicClock::time_point last_poll_ IOFA_GUARDED_BY(mu_);
  std::vector<int> cached_ IOFA_GUARDED_BY(mu_);
  std::uint64_t observed_epoch_ IOFA_GUARDED_BY(mu_) = 0;
  std::uint64_t polls_ IOFA_GUARDED_BY(mu_) = 0;
  std::uint64_t remaps_ IOFA_GUARDED_BY(mu_) = 0;
  telemetry::Counter* poll_counter_ = nullptr;
  telemetry::Counter* remap_counter_ = nullptr;
};

}  // namespace iofa::fwd
