#pragma once
// Daemon health heartbeats -> arbiter failure re-solve.
//
// The monitor samples every ION's alive() heartbeat. On an edge (a
// daemon died or came back) it tells the Arbiter, which re-runs MCKP
// over the surviving set, and republishes the mapping so clients pick
// up the new epoch on their next poll. It also self-heals a LOST
// publish: when the store's epoch lags the arbiter's (a dropped or
// corrupt-rejected mapping file), the next sweep republishes.
//
// Deterministic tests drive poll_once() by hand; live runs start() a
// sampling thread. The Arbiter itself is not thread-safe, so threaded
// users hand the monitor the mutex that already serialises their
// arbiter calls (LiveExecutor's scheduling mutex).

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"
#include "core/arbiter.hpp"
#include "fwd/service.hpp"

namespace iofa::fwd {

class HealthMonitor {
 public:
  struct Options {
    Seconds period = 0.005;  ///< sampling period of the start() thread
    /// Serialises arbiter access against other users (may be null when
    /// the caller drives poll_once() single-threaded).
    Mutex* arbiter_mu = nullptr;
  };

  HealthMonitor(ForwardingService& service, core::Arbiter& arbiter)
      : HealthMonitor(service, arbiter, Options{}) {}
  HealthMonitor(ForwardingService& service, core::Arbiter& arbiter,
                Options options);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// One sweep: sample heartbeats, feed edges to the arbiter,
  /// republish when anything changed (or a publish went missing).
  /// Returns true when a mapping was (re)published.
  bool poll_once() IOFA_EXCLUDES(mu_);

  void start();
  void stop();

  std::uint64_t failures_seen() const IOFA_EXCLUDES(mu_);
  std::uint64_t recoveries_seen() const IOFA_EXCLUDES(mu_);

 private:
  void loop();

  ForwardingService& service_;
  core::Arbiter& arbiter_;
  Options options_;

  mutable Mutex mu_;
  std::vector<char> alive_ IOFA_GUARDED_BY(mu_);  ///< last reported state
  /// Last overload score fed to the arbiter (0 = no hint).
  std::vector<double> hints_ IOFA_GUARDED_BY(mu_);
  std::uint64_t failures_ IOFA_GUARDED_BY(mu_) = 0;
  std::uint64_t recoveries_ IOFA_GUARDED_BY(mu_) = 0;

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace iofa::fwd
