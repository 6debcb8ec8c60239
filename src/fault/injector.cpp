#include "fault/injector.hpp"

#include <algorithm>

namespace iofa::fault {

namespace {

/// FNV-1a, fixed across platforms (std::hash is not), so per-site RNG
/// streams are stable for a given (seed, site) everywhere.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, const FaultClock* clock,
                             telemetry::Registry* registry)
    : enabled_(true),
      plan_(std::move(plan)),
      clock_(clock),
      registry_(registry) {
  if (plan_.validate().has_value()) plan_ = FaultPlan{};
  fired_.assign(plan_.events.size(), false);
  if (registry_) ctr_total_ = &registry_->counter("fault.injected");
}

void FaultInjector::count_injected(const std::string& site,
                                   EventKind kind) {
  ++injected_[site];
  if (ctr_total_) ctr_total_->add();
  if (registry_) {
    registry_
        ->counter("fault.injected.site",
                  {{"site", site}, {"kind", to_string(kind)}})
        .add();
  }
}

Rng& FaultInjector::site_rng(const std::string& site) {
  auto it = rngs_.find(site);
  if (it == rngs_.end()) {
    it = rngs_
             .emplace(site,
                      Rng(SplitMix64(plan_.seed ^ fnv1a(site)).next()))
             .first;
  }
  return it->second;
}

bool FaultInjector::targets(const std::string& site) const {
  const auto parent = shard_site_parent(site);
  return std::any_of(plan_.events.begin(), plan_.events.end(),
                     [&](const FaultEvent& e) {
                       return e.site == site || (parent && e.site == *parent);
                     });
}

FaultDecision FaultInjector::decide(const std::string& site) {
  FaultDecision d;
  if (!enabled_) return d;
  // Shard streams ("ion.N.shard.S") match events targeting the generic
  // request site ("ion.N.request") as well as their own, but count
  // checks and draw randomness per stream - the k-th check on a shard
  // sees the same draw in every run regardless of the other shards.
  const auto parent = shard_site_parent(site);
  MutexLock lk(mu_);
  const std::uint64_t k = ++checks_[site];
  const Seconds t = clock_ ? clock_->now() : 0.0;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.site != site && (!parent || e.site != *parent)) continue;
    switch (e.kind) {
      case EventKind::Stall:
        if (t >= e.at && t < e.at + e.duration) {
          d.stall = std::max(d.stall, e.at + e.duration - t);
          count_injected(site, EventKind::Stall);
        }
        break;
      case EventKind::Error:
        if (e.trigger == TriggerKind::After) {
          if (k == e.after) {
            d.fail = true;
            count_injected(site, EventKind::Error);
          }
        } else if (e.trigger == TriggerKind::Prob) {
          // Draw unconditionally so the stream index stays locked to
          // the check count regardless of other events.
          const double u = site_rng(site).uniform01();
          if (u < e.probability) {
            d.fail = true;
            count_injected(site, EventKind::Error);
          }
        }
        break;
      case EventKind::Crash:
        if (e.trigger == TriggerKind::After && !fired_[i] &&
            k >= e.after) {
          fired_[i] = true;
          if (auto ion = ion_of_site(site)) count_crashed_.insert(*ion);
          d.fail = true;
          count_injected(site, EventKind::Crash);
        }
        break;
      case EventKind::Restart:
      case EventKind::Drop:
      case EventKind::Corrupt:
      case EventKind::Dup:
      case EventKind::Reorder:
      case EventKind::Truncate:
      case EventKind::Delay:
        break;  // handled by ion_alive() / publish / message hooks
    }
  }
  return d;
}

MessageDecision FaultInjector::message_decision(const std::string& site) {
  MessageDecision d;
  if (!enabled_) return d;
  MutexLock lk(mu_);
  const std::uint64_t k = ++checks_[site];
  for (const FaultEvent& e : plan_.events) {
    if (e.site != site) continue;
    bool fire = false;
    if (e.trigger == TriggerKind::After) {
      fire = k == e.after;
    } else if (e.trigger == TriggerKind::Prob) {
      // Draw unconditionally so the stream index stays locked to the
      // frame count regardless of other events on the site.
      fire = site_rng(site).uniform01() < e.probability;
    }
    if (!fire) continue;
    switch (e.kind) {
      case EventKind::Drop: d.drop = true; break;
      case EventKind::Dup: d.dup = true; break;
      case EventKind::Reorder: d.reorder = true; break;
      case EventKind::Truncate: d.truncate = true; break;
      case EventKind::Delay:
        d.delay = std::max(d.delay, e.duration);
        break;
      default:
        continue;  // validate() keeps other kinds off rpc sites
    }
    count_injected(site, e.kind);
  }
  return d;
}

bool FaultInjector::ion_alive(int ion) const {
  if (!enabled_) return true;
  const std::string site = ion_site(ion);
  MutexLock lk(mu_);
  const Seconds t = clock_ ? clock_->now() : 0.0;
  bool alive = !count_crashed_.count(ion);
  // Replay the lifecycle schedule in plan order; validate() guarantees
  // At events per site are chronological, so "last applicable wins" is
  // exactly the state at time t.
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.site != site) continue;
    if (e.kind == EventKind::Crash) {
      if (e.trigger == TriggerKind::At && t >= e.at) alive = false;
    } else if (e.kind == EventKind::Restart) {
      if (t >= e.at) alive = true;
    }
  }
  return alive;
}

bool FaultInjector::consume_mapping_event(EventKind kind) {
  if (!enabled_) return false;
  MutexLock lk(mu_);
  const Seconds t = clock_ ? clock_->now() : 0.0;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    // Site filter matters now that Drop also lives on rpc frame sites.
    if (e.kind != kind || e.site != kMappingPublishSite || fired_[i]) {
      continue;
    }
    if (t >= e.at) {
      fired_[i] = true;
      count_injected(e.site, kind);
      return true;
    }
  }
  return false;
}

bool FaultInjector::should_drop_mapping() {
  return consume_mapping_event(EventKind::Drop);
}

bool FaultInjector::should_corrupt_mapping() {
  return consume_mapping_event(EventKind::Corrupt);
}

std::uint64_t FaultInjector::checks(const std::string& site) const {
  MutexLock lk(mu_);
  auto it = checks_.find(site);
  return it == checks_.end() ? 0 : it->second;
}

std::uint64_t FaultInjector::injected(const std::string& site) const {
  MutexLock lk(mu_);
  auto it = injected_.find(site);
  return it == injected_.end() ? 0 : it->second;
}

std::uint64_t FaultInjector::injected_total() const {
  MutexLock lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [site, n] : injected_) total += n;
  return total;
}

}  // namespace iofa::fault
