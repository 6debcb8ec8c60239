#pragma once
// The runtime half of fault injection: the forwarding stack asks the
// injector at each instrumented site whether this check fails, stalls,
// or whether a component is currently alive.
//
// Determinism guarantees (proven by tests/fault_scenarios_test.cpp):
//
//   * probabilistic events draw from a per-site RNG stream seeded from
//     (plan.seed, site name via a fixed FNV-1a hash) - the k-th check
//     at a site sees the same draw in every run, independent of what
//     happens at other sites;
//   * count-triggered events fire on exactly the `after`-th check;
//   * time-triggered events read the injected FaultClock, which tests
//     drive manually;
//   * every injection increments the `fault.injected` counter
//     (labelled {site, kind}) in the registry handed to the injector.
//
// A default-constructed injector is inert: every query says "healthy"
// without taking the lock, so production paths pay one branch.

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/clock.hpp"
#include "fault/plan.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fault {

/// What a site check should do: fail it, and/or hold it for `stall`
/// seconds first (both can apply in one check).
struct FaultDecision {
  bool fail = false;
  Seconds stall = 0.0;
};

/// What the chaos layer should do to one frame about to cross a
/// message link. Several can apply to the same frame (e.g. dup +
/// delay); drop wins over everything else.
struct MessageDecision {
  bool drop = false;
  bool dup = false;
  bool reorder = false;
  bool truncate = false;
  Seconds delay = 0.0;

  bool any() const {
    return drop || dup || reorder || truncate || delay > 0.0;
  }
};

class FaultInjector {
 public:
  /// Inert injector: all queries succeed, nothing is counted.
  FaultInjector() = default;

  /// `clock` and (optional) `registry` must outlive the injector.
  /// The plan must validate; an invalid plan is replaced by an empty
  /// one (callers parse + validate first, so this is belt-and-braces).
  FaultInjector(FaultPlan plan, const FaultClock* clock,
                telemetry::Registry* registry = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }

  /// True when the plan has an event decide() would match at `site`
  /// (its own, or a shard stream's generic request site). The plan is
  /// fixed at construction, so this takes no lock and counts no check.
  bool targets(const std::string& site) const;

  /// Evaluate one check at `site`: advances the site's check count,
  /// fires count/probability events, reports any active stall window.
  /// The caller is responsible for sleeping through the stall.
  FaultDecision decide(const std::string& site) IOFA_EXCLUDES(mu_);

  /// Evaluate one frame send at an rpc.* site: advances the site's
  /// check count and fires message events (drop/dup/reorder/truncate/
  /// delay). Same determinism contract as decide() - the k-th frame on
  /// a link sees the same decision in every run.
  MessageDecision message_decision(const std::string& site)
      IOFA_EXCLUDES(mu_);

  /// Liveness of ION `ion` under the plan's crash/restart schedule:
  /// events for site ion.<N> are replayed in plan order, last
  /// applicable one wins.
  bool ion_alive(int ion) const IOFA_EXCLUDES(mu_);

  /// Mapping-publish interception; each drop/corrupt event fires at
  /// most once (one publish consumes it).
  bool should_drop_mapping() IOFA_EXCLUDES(mu_);
  bool should_corrupt_mapping() IOFA_EXCLUDES(mu_);

  std::uint64_t checks(const std::string& site) const IOFA_EXCLUDES(mu_);
  std::uint64_t injected(const std::string& site) const IOFA_EXCLUDES(mu_);
  std::uint64_t injected_total() const IOFA_EXCLUDES(mu_);

 private:
  void count_injected(const std::string& site, EventKind kind)
      IOFA_REQUIRES(mu_);
  Rng& site_rng(const std::string& site) IOFA_REQUIRES(mu_);
  bool consume_mapping_event(EventKind kind) IOFA_EXCLUDES(mu_);

  bool enabled_ = false;
  FaultPlan plan_;
  const FaultClock* clock_ = nullptr;
  telemetry::Registry* registry_ = nullptr;

  mutable Mutex mu_;
  /// One-shot latches, parallel to plan_.events (After-crashes, drops,
  /// corrupts).
  std::vector<bool> fired_ IOFA_GUARDED_BY(mu_);
  /// IONs taken down by count-triggered crashes (time-triggered ones
  /// are derived from the clock on every query).
  std::set<int> count_crashed_ IOFA_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::uint64_t> checks_
      IOFA_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::uint64_t> injected_
      IOFA_GUARDED_BY(mu_);
  std::unordered_map<std::string, Rng> rngs_ IOFA_GUARDED_BY(mu_);
  telemetry::Counter* ctr_total_ = nullptr;
};

}  // namespace iofa::fault
