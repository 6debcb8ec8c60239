#include "fwd/health.hpp"

#include <utility>

#include "common/clock.hpp"

namespace iofa::fwd {

namespace {

/// Locks a mutex that may be absent. The capability is the caller's,
/// not ours, so the analysis cannot see through the pointer.
class OptionalLock {
 public:
  explicit OptionalLock(Mutex* mu) IOFA_NO_THREAD_SAFETY_ANALYSIS
      : mu_(mu) {
    if (mu_) mu_->lock();
  }
  ~OptionalLock() IOFA_NO_THREAD_SAFETY_ANALYSIS {
    if (mu_) mu_->unlock();
  }
  OptionalLock(const OptionalLock&) = delete;
  OptionalLock& operator=(const OptionalLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace

HealthMonitor::HealthMonitor(ForwardingService& service,
                             core::Arbiter& arbiter, Options options)
    : service_(service), arbiter_(arbiter), options_(options) {
  MutexLock lk(mu_);
  alive_.assign(static_cast<std::size_t>(service_.ion_count()), 1);
  hints_.assign(static_cast<std::size_t>(service_.ion_count()), 0.0);
}

HealthMonitor::~HealthMonitor() { stop(); }

bool HealthMonitor::poll_once() {
  std::vector<int> died;
  std::vector<int> recovered;
  /// (ion, score) hint changes; score 0 clears the hint.
  std::vector<std::pair<int, double>> hints;
  {
    MutexLock lk(mu_);
    for (int i = 0; i < service_.ion_count(); ++i) {
      auto& daemon = service_.daemon(i);
      const bool beat = daemon.alive();
      const std::size_t idx = static_cast<std::size_t>(i);
      if (beat) {
        if (!alive_[idx]) {
          // Recovery edges are immediate - holding work back from a
          // node that is demonstrably serving again has no upside.
          alive_[idx] = 1;
          recovered.push_back(i);
          ++recoveries_;
        }
        // Overloaded-but-alive is NOT a failure: it becomes a load
        // hint for the next materialisation, never an eviction. With
        // QoS active the hint discounts borrowed (sheddable) bandwidth:
        // an ION busy lending slack is less loaded than it looks.
        const double score =
            daemon.overloaded() ? daemon.load_hint_score() : 0.0;
        if (score != hints_[idx]) {
          hints_[idx] = score;
          hints.emplace_back(i, score);
        }
      } else if (alive_[idx]) {
        // The first missed beat is a death edge.
        alive_[idx] = 0;
        died.push_back(i);
        ++failures_;
      }
    }
  }

  OptionalLock arb_lk(options_.arbiter_mu);
  bool republish = !died.empty() || !recovered.empty();
  for (const auto& [ion, score] : hints) {
    arbiter_.set_load_hint(ion, score);
  }
  for (int ion : died) arbiter_.ion_failed(ion);
  for (int ion : recovered) arbiter_.ion_recovered(ion);
  // Self-heal a lost publish: the arbiter moved on but the store never
  // saw it (dropped / corrupt-rejected mapping file).
  if (service_.mapping_store().epoch() != arbiter_.mapping().epoch) {
    republish = true;
  }
  if (republish) service_.apply_mapping(arbiter_.mapping());
  return republish;
}

void HealthMonitor::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { loop(); });
}

void HealthMonitor::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

void HealthMonitor::loop() {
  while (running_.load()) {
    poll_once();
    sleep_for_seconds(options_.period);
  }
}

std::uint64_t HealthMonitor::failures_seen() const {
  MutexLock lk(mu_);
  return failures_;
}

std::uint64_t HealthMonitor::recoveries_seen() const {
  MutexLock lk(mu_);
  return recoveries_;
}

}  // namespace iofa::fwd
