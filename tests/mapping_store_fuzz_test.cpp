// Differential fuzz of MappingStore's in-place publish: a seeded stream
// of random mappings goes both to the store and to a plain replacement
// reference. After every publish the store must read back exactly the
// reference, and a concurrent fetcher's snapshots must each match one
// mapping the store actually held. Canonical CI seeds: 1 / 7 / 1337
// (IOFA_FAULT_SEED shifts the whole stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <stop_token>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/arbiter.hpp"
#include "fault/clock.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fwd/mapping.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {
namespace {

std::uint64_t fault_seed() {
  if (const char* env = std::getenv("IOFA_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

constexpr int kPublishes = 10'000;
constexpr core::JobId kMaxId = 32;
constexpr std::size_t kMaxSamples = 100'000;

/// Labels the text form must escape sit beside ordinary ones, so the
/// corrupt path's re-parse sees them too.
const std::vector<std::string> kLabels = {"IOR-MPI", "S3D", "MAD", "",
                                          "a b", "100%", "tab\t"};

core::Mapping::Entry random_entry(Rng& rng, int pool) {
  core::Mapping::Entry e;
  e.app_label = kLabels[rng.index(kLabels.size())];
  e.shared = rng.uniform01() < 0.15;
  const std::size_t n = e.shared ? 1 : rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    e.ions.push_back(static_cast<int>(rng.index(
        static_cast<std::size_t>(pool))));
  }
  return e;
}

core::JobId random_id(Rng& rng) { return 1 + rng.index(kMaxId); }

/// One random edit of `m`: insert, erase, label-only, ION-order,
/// shared-flag, ION-list or pool change, or (rarely) empty it.
void mutate(core::Mapping& m, Rng& rng) {
  const auto existing = [&]() -> core::Mapping::Entry* {
    if (m.jobs.empty()) return nullptr;
    auto it = m.jobs.begin();
    std::advance(it, static_cast<long>(rng.index(m.jobs.size())));
    return &it->second;
  };
  switch (rng.index(9)) {
    case 0:
    case 1:
      m.jobs[random_id(rng)] = random_entry(rng, m.pool);
      break;
    case 2:
      m.jobs.erase(random_id(rng));
      break;
    case 3:
      if (auto* e = existing()) {
        e->app_label = kLabels[rng.index(kLabels.size())];
      }
      break;
    case 4:
      if (auto* e = existing()) rng.shuffle(e->ions);
      break;
    case 5:
      if (auto* e = existing()) e->shared = !e->shared;
      break;
    case 6:
      if (auto* e = existing()) *e = random_entry(rng, m.pool);
      break;
    case 7:
      m.pool = 1 + static_cast<int>(rng.index(16));
      break;
    default:
      if (rng.uniform01() < 0.05) m.jobs.clear();
      break;
  }
}

struct Sample {
  core::JobId job = 0;
  MappingSnapshot snap;
};

TEST(MappingStoreFuzz, InPlacePublishEqualsPlainReplacement) {
  const std::uint64_t seed = fault_seed();
  SCOPED_TRACE("reproduce with IOFA_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  // Publish s runs at fault-clock time s; the drops and corrupts fired
  // by the plan are drawn up front so the reference knows them.
  std::vector<char> fault(kPublishes, 0);
  fault::FaultPlan plan;
  for (int s = 0; s < kPublishes; ++s) {
    const double u = rng.uniform01();
    if (u < 0.03) {
      fault[s] = 'd';
      plan.drop_mapping(s);
    } else if (u < 0.06) {
      fault[s] = 'c';
      plan.corrupt_mapping(s);
    }
  }
  ASSERT_FALSE(plan.validate().has_value());
  fault::ManualFaultClock clock;
  telemetry::Registry reg;
  fault::FaultInjector injector(plan, &clock, &reg);
  MappingStore store(&reg);
  store.set_injector(&injector);

  // Every mapping the store held, indexed by epoch (epochs repeat).
  core::Mapping reference;
  std::vector<core::Mapping> held{reference};
  std::unordered_multimap<std::uint64_t, std::size_t> held_at{{0, 0}};

  // Fetches for the whole run and keeps a uniform sample of them
  // (reservoir sampling); joined on every exit path, failed ASSERTs too.
  std::vector<Sample> samples;
  std::jthread fetcher([&](std::stop_token stop) {
    Rng frng(seed + 1);
    for (std::uint64_t n = 0; !stop.stop_requested(); ++n) {
      const core::JobId job = random_id(frng);
      Sample sample{job, store.snapshot(job)};
      if (samples.size() < kMaxSamples) {
        samples.push_back(std::move(sample));
      } else if (const auto k = frng.index(n + 1); k < kMaxSamples) {
        samples[k] = std::move(sample);
      }
    }
  });

  core::Mapping next;
  next.pool = 8;
  for (int s = 0; s < kPublishes; ++s) {
    const auto edits = 1 + rng.index(3);
    for (std::size_t i = 0; i < edits; ++i) mutate(next, rng);
    const double u = rng.uniform01();
    if (u < 0.1) {
      next.epoch -= std::min<std::uint64_t>(next.epoch, rng.index(6));
    } else if (u < 0.9) {
      ++next.epoch;
    }

    const core::Mapping before = reference;
    clock.set(s);
    store.publish(next);
    // A corrupted publish survives only when the mangled text has no job
    // line to break: the empty mapping.
    if (fault[s] == 0 || (fault[s] == 'c' && next.jobs.empty())) {
      reference = next;
      held.push_back(reference);
      held_at.emplace(reference.epoch, held.size() - 1);
    }

    ASSERT_EQ(store.get(), reference) << "publish " << s;
    ASSERT_EQ(store.epoch(), reference.epoch) << "publish " << s;
    std::set<core::JobId> ids;
    for (const auto& [id, e] : before.jobs) ids.insert(id);
    for (const auto& [id, e] : next.jobs) ids.insert(id);
    for (const core::JobId id : ids) {
      const auto snap = store.snapshot(id);
      const auto it = reference.jobs.find(id);
      ASSERT_EQ(snap.found, it != reference.jobs.end())
          << "publish " << s << " job " << id;
      ASSERT_EQ(snap.epoch, reference.epoch) << "publish " << s;
      if (snap.found) {
        ASSERT_EQ(snap.ions, it->second.ions)
            << "publish " << s << " job " << id;
      }
    }
  }
  fetcher.request_stop();
  fetcher.join();
  EXPECT_EQ(injector.injected(fault::kMappingPublishSite),
            static_cast<std::uint64_t>(
                std::count_if(fault.begin(), fault.end(),
                              [](char f) { return f != 0; })));

  // Each concurrent snapshot pairs an ION list with the epoch of one
  // mapping the store held, never a half-patched one.
  int torn = 0;
  for (const auto& [job, snap] : samples) {
    bool matched = false;
    const auto [lo, hi] = held_at.equal_range(snap.epoch);
    for (auto it = lo; it != hi && !matched; ++it) {
      const auto& jobs = held[it->second].jobs;
      const auto e = jobs.find(job);
      matched = snap.found ? e != jobs.end() && e->second.ions == snap.ions
                           : e == jobs.end();
    }
    if (!matched) ++torn;
  }
  EXPECT_EQ(torn, 0) << "of " << samples.size() << " concurrent snapshots";
  EXPECT_GT(samples.size(), 0u);
}

}  // namespace
}  // namespace iofa::fwd
