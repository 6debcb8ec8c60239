// Randomised churn tests: drive the arbiter (and the policies) through
// long random sequences of job starts/finishes and assert the structural
// invariants after every step. These are the properties the runtime
// relies on; any violation would corrupt live routing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/arbiter.hpp"
#include "core/mckp.hpp"
#include "core/related.hpp"
#include "platform/perf_model.hpp"
#include "platform/profile.hpp"
#include "workload/pattern.hpp"

namespace iofa::core {
namespace {

/// Invariants a mapping must always satisfy.
void check_mapping(const Mapping& mapping, int pool) {
  std::set<int> exclusive;
  std::set<int> shared_ions;
  for (const auto& [id, entry] : mapping.jobs) {
    if (entry.shared) {
      for (int ion : entry.ions) shared_ions.insert(ion);
      continue;
    }
    for (int ion : entry.ions) {
      EXPECT_GE(ion, 0);
      EXPECT_LT(ion, pool);
      EXPECT_TRUE(exclusive.insert(ion).second)
          << "ION " << ion << " assigned to two jobs (epoch "
          << mapping.epoch << ")";
    }
  }
  // The shared node must not also be handed out exclusively.
  for (int ion : shared_ions) {
    EXPECT_FALSE(exclusive.count(ion));
    EXPECT_LT(ion, pool);
  }
  EXPECT_LE(exclusive.size() + shared_ions.size(),
            static_cast<std::size_t>(pool));
}

class ArbiterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArbiterFuzz, RandomChurnPreservesInvariants) {
  Rng rng(GetParam());
  platform::PerfModel model(platform::mn4_params());
  const auto grid = workload::mn4_scenario_grid();
  const auto options = platform::default_ion_options();

  const int pool = 1 + static_cast<int>(rng.index(24));
  Arbiter arb(std::make_shared<MckpPolicy>(),
              ArbiterOptions{pool, std::nullopt, true});

  std::map<JobId, std::vector<int>> previous;
  std::set<JobId> running;
  JobId next_id = 1;
  std::uint64_t prev_epoch = 0;

  for (int step = 0; step < 200; ++step) {
    const bool start = running.empty() || rng.uniform01() < 0.55;
    if (start) {
      const auto& pattern = grid[rng.index(grid.size())];
      const JobId id = next_id++;
      arb.job_started(
          id, AppEntry{"S", pattern.compute_nodes, pattern.processes(),
                       platform::curve_from_model(model, pattern,
                                                  options)});
      running.insert(id);
    } else {
      auto it = running.begin();
      std::advance(it, static_cast<long>(rng.index(running.size())));
      arb.job_finished(*it);
      running.erase(it);
    }

    const Mapping& m = arb.mapping();
    EXPECT_GT(m.epoch, prev_epoch);
    prev_epoch = m.epoch;
    EXPECT_EQ(m.jobs.size(), running.size());
    check_mapping(m, pool);

    // Stability: a job whose ION count did not change keeps the exact
    // same identities (no gratuitous reshuffling).
    for (const auto& [id, entry] : m.jobs) {
      auto prev = previous.find(id);
      if (prev != previous.end() &&
          prev->second.size() == entry.ions.size()) {
        EXPECT_EQ(prev->second, entry.ions) << "job " << id;
      }
    }
    previous.clear();
    for (const auto& [id, entry] : m.jobs) {
      if (!entry.shared) previous[id] = entry.ions;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbiterFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

/// ION-death sequences: random crash/recover edges interleaved with job
/// churn. After every effective step the mapping must (a) satisfy the
/// structural invariants, (b) never assign a dead ION, and (c) carry
/// exactly the per-job counts a FRESH solve of the same policy over the
/// surviving pool would produce - the failure re-solve is not allowed
/// to drift from first-principles arbitration.
class IonDeathFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IonDeathFuzz, DeathSequencesNeverMapToDeadIonsAndMatchFreshSolve) {
  Rng rng(GetParam() * 104729);
  platform::PerfModel model(platform::mn4_params());
  const auto grid = workload::mn4_scenario_grid();
  const auto options = platform::default_ion_options();

  const int pool = 2 + static_cast<int>(rng.index(14));
  Arbiter arb(std::make_shared<MckpPolicy>(),
              ArbiterOptions{pool, std::nullopt, true});

  std::map<JobId, AppEntry> running;  // oracle copy of the job set
  std::set<int> failed;               // oracle copy of the failed set
  JobId next_id = 1;
  std::uint64_t prev_epoch = 0;

  for (int step = 0; step < 160; ++step) {
    const double dice = rng.uniform01();
    bool effective = true;
    if (running.empty() || dice < 0.35) {
      const auto& pattern = grid[rng.index(grid.size())];
      const JobId id = next_id++;
      AppEntry app{"S", pattern.compute_nodes, pattern.processes(),
                   platform::curve_from_model(model, pattern, options)};
      running.emplace(id, app);
      arb.job_started(id, app);
    } else if (dice < 0.55) {
      auto it = running.begin();
      std::advance(it, static_cast<long>(rng.index(running.size())));
      arb.job_finished(it->first);
      running.erase(it);
    } else if (dice < 0.85) {
      // Deliberately includes already-dead and out-of-range ids: those
      // must be no-ops, not epoch bumps.
      const int ion = static_cast<int>(rng.index(
          static_cast<std::size_t>(pool) + 2));
      effective = ion < pool && failed.insert(ion).second;
      arb.ion_failed(ion);
    } else {
      const int ion = static_cast<int>(rng.index(
          static_cast<std::size_t>(pool) + 2));
      effective = failed.erase(ion) != 0;
      arb.ion_recovered(ion);
    }

    const Mapping& m = arb.mapping();
    if (effective) {
      EXPECT_GT(m.epoch, prev_epoch);
    } else {
      EXPECT_EQ(m.epoch, prev_epoch);
    }
    prev_epoch = m.epoch;
    EXPECT_EQ(arb.failed_ions(), failed);
    EXPECT_EQ(m.jobs.size(), running.size());
    check_mapping(m, pool);
    for (const auto& [id, entry] : m.jobs) {
      for (int ion : entry.ions) {
        EXPECT_EQ(failed.count(ion), 0u)
            << "job " << id << " mapped to dead ION " << ion
            << " (epoch " << m.epoch << ")";
      }
    }

    // Oracle: a fresh solve over the surviving pool must agree with the
    // counts behind the published mapping (running_ iterates in JobId
    // order, same as our oracle map).
    AllocationProblem prob;
    prob.pool = pool - static_cast<int>(failed.size());
    for (const auto& [id, app] : running) prob.apps.push_back(app);
    const auto fresh = MckpPolicy().allocate(prob);
    ASSERT_EQ(fresh.ions.size(), running.size());
    std::size_t i = 0;
    for (const auto& [id, app] : running) {
      ASSERT_TRUE(arb.last_counts().count(id));
      EXPECT_EQ(arb.last_counts().at(id), fresh.ions[i])
          << "job " << id << " diverged from the fresh solve after "
          << failed.size() << " failures";
      ++i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IonDeathFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

/// TSan regression for Arbiter::last_solve_seconds(): the value is
/// written by every solve while observers (dashboards, the telemetry
/// exporter) poll it from other threads. Drive a failure re-solve
/// storm - the HealthMonitor's access pattern - under a concurrent
/// poller; the read is atomic, so TSan must stay quiet.
TEST(ArbiterSolveTime, PollingDuringFailureResolveStormIsRaceFree) {
  platform::PerfModel model(platform::mn4_params());
  const auto grid = workload::mn4_scenario_grid();
  const auto options = platform::default_ion_options();

  const int pool = 8;
  core::Arbiter arb(std::make_shared<MckpPolicy>(),
                    ArbiterOptions{pool, std::nullopt, true});
  Rng rng(42);
  for (JobId id = 1; id <= 4; ++id) {
    const auto& pattern = grid[rng.index(grid.size())];
    arb.job_started(
        id, AppEntry{"S", pattern.compute_nodes, pattern.processes(),
                     platform::curve_from_model(model, pattern, options)});
  }

  std::atomic<bool> stop{false};
  Seconds max_seen = 0.0;
  std::thread poller([&] {
    while (!stop.load()) {
      max_seen = std::max(max_seen, arb.last_solve_seconds());
      sleep_for_seconds(1e-5);
    }
  });
  // The storm: every ion_failed/ion_recovered re-solves and rewrites
  // the solve time while the poller reads it.
  for (int round = 0; round < 40; ++round) {
    arb.ion_failed(round % pool);
    arb.ion_recovered(round % pool);
  }
  stop.store(true);
  poller.join();

  EXPECT_GE(max_seen, 0.0);
  EXPECT_GE(arb.last_solve_seconds(), 0.0);
}

/// Negative-value classes pin DP == brute force: the DP used to track
/// reachability with a -inf value sentinel compared by float equality,
/// which negative (or -inf) item values can collide with.
class MckpNegativeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MckpNegativeFuzz, DpMatchesBruteforceUnderNegativeValues) {
  Rng rng(GetParam() * 31337);
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<MckpClass> classes;
    const std::size_t k = 1 + rng.index(4);
    for (std::size_t i = 0; i < k; ++i) {
      MckpClass c;
      const std::size_t n = 1 + rng.index(4);
      for (std::size_t j = 0; j < n; ++j) {
        double value = rng.uniform(-100.0, 20.0);
        // Sprinkle exact -inf items: legitimate "never pick unless
        // forced" markers that an in-band sentinel mistakes for
        // unreachable states.
        if (rng.uniform01() < 0.1) {
          value = -std::numeric_limits<double>::infinity();
        }
        c.push_back(MckpItem{rng.uniform_int(0, 5), value});
      }
      classes.push_back(std::move(c));
    }
    const int capacity = rng.uniform_int(0, 12);

    const auto dp = solve_mckp_dp(classes, capacity);
    const auto brute = solve_mckp_bruteforce(classes, capacity);
    ASSERT_EQ(dp.has_value(), brute.has_value())
        << "seed " << GetParam() << " trial " << trial;
    if (dp) {
      if (std::isinf(brute->value)) {
        EXPECT_EQ(dp->value, brute->value)
            << "seed " << GetParam() << " trial " << trial;
      } else {
        EXPECT_NEAR(dp->value, brute->value, 1e-9)
            << "seed " << GetParam() << " trial " << trial;
      }
      EXPECT_LE(dp->weight, capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpNegativeFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

class PolicyFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyFuzz, AllPoliciesProduceFeasibleOptionsOnRandomProblems) {
  Rng rng(GetParam() * 7919);
  platform::PerfModel model(platform::mn4_params());
  const auto grid = workload::mn4_scenario_grid();
  const auto options = platform::default_ion_options();

  for (int trial = 0; trial < 40; ++trial) {
    AllocationProblem prob;
    prob.pool = static_cast<int>(rng.index(129));
    const std::size_t apps = 1 + rng.index(20);
    for (std::size_t a = 0; a < apps; ++a) {
      const auto& p = grid[rng.index(grid.size())];
      prob.apps.push_back(AppEntry{
          "S", p.compute_nodes, p.processes(),
          platform::curve_from_model(model, p, options)});
    }

    auto policies = standard_policies();
    policies.push_back(std::make_unique<DfraPolicy>());
    policies.push_back(std::make_unique<RecruitmentPolicy>());

    double mckp_value = -1.0;
    for (const auto& policy : policies) {
      const auto alloc = policy->allocate(prob);
      ASSERT_EQ(alloc.ions.size(), prob.apps.size()) << policy->name();
      for (std::size_t i = 0; i < alloc.ions.size(); ++i) {
        const bool is_shared =
            i < alloc.shared.size() && alloc.shared[i];
        if (is_shared) continue;
        EXPECT_TRUE(prob.apps[i].curve.has_option(alloc.ions[i]))
            << policy->name() << " picked infeasible option "
            << alloc.ions[i];
      }
      const double value = alloc.aggregate_bw(prob);
      EXPECT_GE(value, 0.0);
      if (policy->name() == "MCKP") mckp_value = value;
      // MCKP dominance: no pool-respecting policy beats it.
      if (mckp_value >= 0.0 && alloc.respects_pool &&
          policy->name() != "ORACLE") {
        EXPECT_LE(value, mckp_value + 1e-6) << policy->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ===================================================================
// Warm-start differential fuzzers: the incremental tree must be
// IDENTICAL - value (exact ==, not NEAR), weight and every choice - to
// a fresh solve_mckp_dp after every delta, because both sum in fixed
// point and break ties by the same canonical rule.

std::uint64_t fault_seed() {
  if (const char* env = std::getenv("IOFA_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

#define IOFA_TRACE_SEED(seed) \
  SCOPED_TRACE("reproduce with IOFA_FAULT_SEED=" + std::to_string(seed))

/// Seeded random streams of add / replace / finish / batch / capacity
/// events against the solver-level table, >= 10k events per seed, each
/// followed by the full differential check plus feasibility of the
/// reconstructed choices, and by the change walk's check: its reports,
/// applied to the weights the walks reported before, give solve()'s
/// picks. Every 101st step also rebuilds the table from the model, and
/// every 89th step makes it infeasible for one walk first (as when the
/// Arbiter falls back to the policy's solve and applies other counts).
/// Canonical CI seeds: 1 / 7 / 1337 (the fault-suite convention;
/// IOFA_FAULT_SEED shifts the whole stream).
class IncrementalDeltaFuzz : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IncrementalDeltaFuzz, TenThousandDeltasStayIdenticalToFreshOracle) {
  const std::uint64_t seed = GetParam() * 0x9E3779B97F4A7C15ULL + fault_seed();
  IOFA_TRACE_SEED(fault_seed());
  Rng rng(seed);

  const int max_weight = 8 + static_cast<int>(rng.index(9));  // 8..16
  IncrementalMckp inc;
  inc.reset(max_weight);
  std::map<std::uint64_t, MckpClass> model;  // oracle mirror
  int capacity = max_weight;
  std::uint64_t next_key = 1;

  auto random_class = [&] {
    MckpClass c;
    const std::size_t n = 1 + rng.index(5);
    for (std::size_t j = 0; j < n; ++j) {
      // Every class has a 0-weight item (a job's direct option), so the
      // stream stays feasible however many classes it holds; without
      // one, a few dozen classes are infeasible at any capacity and
      // the value/choice checks below would never run. The other
      // weights deliberately overshoot max_weight sometimes: items the
      // table must ignore exactly like the fresh DP does.
      const int w = j == 0 ? 0 : rng.uniform_int(0, max_weight + 2);
      c.push_back(MckpItem{w, rng.uniform(0.0, 1000.0)});
    }
    return c;
  };

  int events = 0;
  int compared = 0;
  int step = 0;
  std::map<std::uint64_t, int> walked;  // weights the walks reported
  std::vector<std::pair<std::uint64_t, int>> changes;
  int full_walks = 0;
  for (; events < 10'000; ++step) {
    const double dice = rng.uniform01();
    if (model.empty() || dice < 0.40) {
      const std::uint64_t key = next_key++;
      auto c = random_class();
      model[key] = c;
      inc.upsert(key, std::move(c));
      ++events;
    } else if (dice < 0.55) {
      // Replace an existing class in place (same key, new items).
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.index(model.size())));
      auto c = random_class();
      it->second = c;
      inc.upsert(it->first, std::move(c));
      ++events;
    } else if (dice < 0.80) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.index(model.size())));
      EXPECT_TRUE(inc.erase(it->first));
      model.erase(it);
      ++events;
    } else if (dice < 0.92) {
      // Capacity move (ION failed / recovered): no table mutation at
      // all, only the final scan shifts.
      capacity = rng.uniform_int(0, max_weight);
      ++events;
    } else {
      // A run of several edits with no solve between them.
      const std::size_t n = 2 + rng.index(4);
      for (std::size_t b = 0; b < n; ++b) {
        if (!model.empty() && rng.uniform01() < 0.4) {
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng.index(model.size())));
          EXPECT_TRUE(inc.erase(it->first));
          model.erase(it);
        } else {
          const std::uint64_t key = next_key++;
          auto c = random_class();
          model[key] = c;
          inc.upsert(key, std::move(c));
        }
        ++events;
      }
    }

    // Differential check after EVERY event (a run of edits checks once,
    // after its last edit).
    std::vector<MckpClass> classes;
    classes.reserve(model.size());
    for (const auto& [key, c] : model) classes.push_back(c);
    const auto fresh = solve_mckp_dp(classes, capacity);
    const auto warm = inc.solve(capacity);
    ASSERT_EQ(warm.has_value(), fresh.has_value())
        << "step " << step << " capacity " << capacity;
    if (!warm) continue;
    ASSERT_EQ(warm->value, fresh->value)
        << "step " << step << " capacity " << capacity;
    ASSERT_EQ(warm->weight, fresh->weight) << "step " << step;
    ASSERT_EQ(warm->choice.size(), model.size());
    for (std::size_t i = 0; i < warm->choice.size(); ++i) {
      ASSERT_EQ(warm->choice[i], fresh->choice[i])
          << "step " << step << " class " << i;
    }

    // Feasibility of the reconstructed choices.
    double value = 0.0;
    int weight = 0;
    for (std::size_t i = 0; i < warm->choice.size(); ++i) {
      ASSERT_LT(warm->choice[i], classes[i].size());
      value += classes[i][warm->choice[i]].value;
      weight += classes[i][warm->choice[i]].weight;
    }
    ASSERT_EQ(weight, warm->weight);
    ASSERT_LE(weight, capacity);
    ASSERT_NEAR(value, warm->value, 1e-6);
    ++compared;

    // The change walk, outside the rng stream above.
    if (step % 101 == 0) {
      inc.assign(max_weight, {model.begin(), model.end()});
    }
    if (step % 89 == 0) {
      constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
      inc.upsert(kEmpty, MckpClass{});
      ASSERT_FALSE(inc.solve_changes(capacity, changes)) << "step " << step;
      ASSERT_TRUE(inc.erase(kEmpty));
      // The caller applied another solve: every weight it holds is stale.
      for (auto& [key, w] : walked) w = -1;
      ++full_walks;
    }
    ASSERT_TRUE(inc.solve_changes(capacity, changes)) << "step " << step;
    std::erase_if(walked, [&](const auto& kv) {
      return !model.contains(kv.first);
    });
    for (std::size_t i = 0; i < changes.size(); ++i) {
      ASSERT_TRUE(i == 0 || changes[i - 1].first < changes[i].first)
          << "step " << step << ": changes out of key order";
      walked[changes[i].first] = changes[i].second;
    }
    ASSERT_EQ(walked.size(), model.size()) << "step " << step;
    auto w = walked.begin();
    for (std::size_t i = 0; i < classes.size(); ++i, ++w) {
      ASSERT_EQ(w->second, classes[i][warm->choice[i]].weight)
          << "step " << step << " class " << i;
    }
  }
  EXPECT_EQ(compared, step) << "every step must reach the value checks";
  EXPECT_GT(full_walks, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDeltaFuzz,
                         ::testing::Values(1u, 7u, 1337u));

/// Exact ties on purpose: every class is one of at most 8 templates of
/// small integer-valued items, so many selections share the optimal
/// value and weight (job-churn deals its jobs from a small deck the
/// same way). The tree must pick the DP's canonical vector every time,
/// and the arbiter's counts must match a fresh MckpPolicy solve.
class IncrementalTieFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalTieFuzz, DuplicateClassesPickTheDpsCanonicalVector) {
  const std::uint64_t seed = GetParam() * 0xD1B54A32D192ED03ULL + fault_seed();
  IOFA_TRACE_SEED(fault_seed());
  Rng rng(seed);

  const int max_weight = 6 + static_cast<int>(rng.index(11));  // 6..16
  // Each template starts with a 0-weight item, so every instance is
  // feasible and reaches the choice check.
  std::vector<MckpClass> templates(1 + rng.index(8));
  for (auto& t : templates) {
    const std::size_t n = 1 + rng.index(4);
    for (std::size_t j = 0; j < n; ++j) {
      t.push_back(MckpItem{j == 0 ? 0 : rng.uniform_int(0, 4),
                           static_cast<double>(rng.uniform_int(0, 6))});
    }
  }
  IncrementalMckp inc;
  inc.reset(max_weight);
  std::map<std::uint64_t, MckpClass> model;
  int capacity = max_weight;
  std::uint64_t next_key = 1;
  const auto pick = [&] { return templates[rng.index(templates.size())]; };
  const auto random_key = [&] {
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng.index(model.size())));
    return it->first;
  };

  for (int step = 0; step < 3000; ++step) {
    const double dice = rng.uniform01();
    if (model.empty() || dice < 0.40) {
      const std::uint64_t key = next_key++;
      model[key] = pick();
      inc.upsert(key, model[key]);
    } else if (dice < 0.55) {
      const std::uint64_t key = random_key();
      model[key] = pick();
      inc.upsert(key, model[key]);
    } else if (dice < 0.80) {
      const std::uint64_t key = random_key();
      model.erase(key);
      EXPECT_TRUE(inc.erase(key));
    } else if (dice < 0.92) {
      capacity = rng.uniform_int(0, max_weight);
    } else {
      for (std::size_t b = 2 + rng.index(4); b > 0; --b) {
        if (!model.empty() && rng.uniform01() < 0.4) {
          const std::uint64_t key = random_key();
          model.erase(key);
          EXPECT_TRUE(inc.erase(key));
        } else {
          const std::uint64_t key = next_key++;
          model[key] = pick();
          inc.upsert(key, model[key]);
        }
      }
    }

    std::vector<MckpClass> classes;
    for (const auto& [key, c] : model) classes.push_back(c);
    const auto fresh = solve_mckp_dp(classes, capacity);
    const auto warm = inc.solve(capacity);
    ASSERT_TRUE(fresh.has_value()) << "step " << step;
    ASSERT_TRUE(warm.has_value()) << "step " << step;
    ASSERT_EQ(warm->value, fresh->value) << "step " << step;
    ASSERT_EQ(warm->weight, fresh->weight) << "step " << step;
    ASSERT_EQ(warm->choice, fresh->choice) << "step " << step;
  }
}

TEST_P(IncrementalTieFuzz, ArbiterCountsMatchFreshSolveUnderCurveUpdates) {
  const std::uint64_t seed = GetParam() * 0x94D049BB133111EBULL + fault_seed();
  IOFA_TRACE_SEED(fault_seed());
  Rng rng(seed);

  std::vector<platform::BandwidthCurve> deck(1 + rng.index(8));
  for (auto& curve : deck) {
    std::vector<std::pair<int, double>> points;
    for (int opt : {0, 1, 2, 4, 8}) {
      points.emplace_back(opt, 100.0 * rng.uniform_int(0, 8));
    }
    curve = platform::BandwidthCurve(points);
  }
  const int pool = 4 + static_cast<int>(rng.index(12));
  Arbiter arb(std::make_shared<MckpPolicy>(),
              ArbiterOptions{pool, std::nullopt, true});
  std::map<JobId, AppEntry> running;
  std::set<int> failed;
  JobId next_id = 1;
  const auto dealt = [&] {
    return AppEntry{"T", 16, 256, deck[rng.index(deck.size())]};
  };

  for (int step = 0; step < 600; ++step) {
    const double dice = rng.uniform01();
    if (running.empty() || dice < 0.35) {
      const JobId id = next_id++;
      running[id] = dealt();
      arb.job_started(id, running[id]);
    } else if (dice < 0.60) {
      auto it = running.begin();
      std::advance(it, static_cast<long>(rng.index(running.size())));
      arb.job_finished(it->first);
      running.erase(it);
    } else if (dice < 0.80) {
      auto it = running.begin();
      std::advance(it, static_cast<long>(rng.index(running.size())));
      it->second = dealt();
      arb.job_updated(it->first, it->second);
    } else if (dice < 0.90) {
      const int ion =
          static_cast<int>(rng.index(static_cast<std::size_t>(pool)));
      if (failed.insert(ion).second) arb.ion_failed(ion);
    } else {
      const int ion =
          static_cast<int>(rng.index(static_cast<std::size_t>(pool)));
      if (failed.erase(ion)) arb.ion_recovered(ion);
    }

    AllocationProblem prob;
    prob.pool = pool - static_cast<int>(failed.size());
    for (const auto& [id, app] : running) prob.apps.push_back(app);
    const auto fresh = MckpPolicy().allocate(prob);
    std::size_t i = 0;
    for (const auto& [id, app] : running) {
      const bool is_shared = i < fresh.shared.size() && fresh.shared[i];
      ASSERT_TRUE(arb.last_counts().count(id));
      EXPECT_EQ(arb.last_counts().at(id), is_shared ? 0 : fresh.ions[i])
          << "job " << id << " diverged at step " << step;
      ++i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTieFuzz,
                         ::testing::Values(1u, 7u, 1337u));

/// Arbiter-level delta streams: job add/finish, ION fail/recover AND
/// pool resizes (the structural trigger), with the warm path on. After
/// every event the published counts must match a fresh MckpPolicy
/// solve over the surviving pool - the same oracle IonDeathFuzz uses,
/// now exercised across warm rebuilds.
class ArbiterDeltaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArbiterDeltaFuzz, DeltaStreamsWithResizesMatchFreshSolve) {
  const std::uint64_t seed = GetParam() * 2654435761u + fault_seed();
  IOFA_TRACE_SEED(fault_seed());
  Rng rng(seed);
  platform::PerfModel model(platform::mn4_params());
  const auto grid = workload::mn4_scenario_grid();
  const auto options = platform::default_ion_options();

  int pool = 4 + static_cast<int>(rng.index(12));
  Arbiter arb(std::make_shared<MckpPolicy>(),
              ArbiterOptions{pool, std::nullopt, true});

  std::map<JobId, AppEntry> running;
  std::set<int> failed;
  JobId next_id = 1;

  for (int step = 0; step < 400; ++step) {
    const double dice = rng.uniform01();
    if (running.empty() || dice < 0.35) {
      const auto& pattern = grid[rng.index(grid.size())];
      const JobId id = next_id++;
      AppEntry app{"S", pattern.compute_nodes, pattern.processes(),
                   platform::curve_from_model(model, pattern, options)};
      running.emplace(id, app);
      arb.job_started(id, app);
    } else if (dice < 0.55) {
      auto it = running.begin();
      std::advance(it, static_cast<long>(rng.index(running.size())));
      arb.job_finished(it->first);
      running.erase(it);
    } else if (dice < 0.70) {
      const int ion =
          static_cast<int>(rng.index(static_cast<std::size_t>(pool)));
      if (failed.insert(ion).second) arb.ion_failed(ion);
    } else if (dice < 0.85) {
      const int ion =
          static_cast<int>(rng.index(static_cast<std::size_t>(pool)));
      if (failed.erase(ion)) arb.ion_recovered(ion);
    } else {
      // Structural: grow or shrink the physical pool.
      pool = 4 + static_cast<int>(rng.index(12));
      failed.erase(failed.lower_bound(pool), failed.end());
      arb.set_pool(pool);
    }

    check_mapping(arb.mapping(), pool);
    EXPECT_EQ(arb.failed_ions(), failed);

    AllocationProblem prob;
    prob.pool = pool - static_cast<int>(failed.size());
    for (const auto& [id, app] : running) prob.apps.push_back(app);
    const auto fresh = MckpPolicy().allocate(prob);
    ASSERT_EQ(fresh.ions.size(), running.size());
    std::size_t i = 0;
    for (const auto& [id, app] : running) {
      const bool is_shared = i < fresh.shared.size() && fresh.shared[i];
      ASSERT_TRUE(arb.last_counts().count(id));
      EXPECT_EQ(arb.last_counts().at(id), is_shared ? 0 : fresh.ions[i])
          << "job " << id << " diverged at step " << step << " (pool "
          << pool << ", " << failed.size() << " failed)";
      ++i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbiterDeltaFuzz,
                         ::testing::Values(1u, 7u, 1337u));

// ===================================================================
// Materialisation differential fuzz: the arbiter edits its mapping in
// place and rematerialises only the jobs whose assignment changed. The
// oracle below is the from-scratch materialiser it replaced, as a pure
// function; after every event the arbiter's mapping must equal it.

/// From-scratch materialisation: keep the usable prefix of every job's
/// previous IONs, then top all jobs up in id order from the free IONs,
/// least-loaded first.
Mapping reference_materialize(const Mapping& prev,
                              const std::map<JobId, int>& counts,
                              const std::map<JobId, bool>& shared,
                              const std::set<int>& failed,
                              const std::map<int, double>& hints,
                              const std::map<JobId, std::string>& labels,
                              int pool) {
  auto load_hint = [&](int ion) {
    const auto it = hints.find(ion);
    return it == hints.end() ? 0.0 : it->second;
  };
  std::vector<int> alive;
  for (int i = 0; i < pool; ++i) {
    if (!failed.contains(i)) alive.push_back(i);
  }
  bool any_shared = false;
  for (const auto& [id, s] : shared) any_shared |= s;
  const int shared_ion = alive.empty() ? -1 : alive.back();

  std::set<int> free_ions(alive.begin(), alive.end());
  if (any_shared && shared_ion >= 0) free_ions.erase(shared_ion);
  const std::set<int> usable = free_ions;

  std::map<JobId, std::vector<int>> kept;
  for (const auto& [id, n] : counts) {
    std::vector<int> keep;
    const auto it = prev.jobs.find(id);
    if (it != prev.jobs.end() && !it->second.shared) {
      for (int ion : it->second.ions) {
        if (static_cast<int>(keep.size()) < n && usable.contains(ion)) {
          keep.push_back(ion);
        }
      }
    }
    kept[id] = std::move(keep);
  }
  for (const auto& [id, ions] : kept) {
    for (int ion : ions) free_ions.erase(ion);
  }

  std::vector<int> free_order(free_ions.begin(), free_ions.end());
  std::stable_sort(free_order.begin(), free_order.end(),
                   [&](int a, int b) { return load_hint(a) < load_hint(b); });
  std::size_t next_free = 0;

  Mapping next;
  next.epoch = prev.epoch + 1;
  next.pool = pool;
  for (const auto& [id, n] : counts) {
    Mapping::Entry entry;
    entry.app_label = labels.at(id);
    entry.shared = shared.at(id);
    if (entry.shared) {
      if (shared_ion >= 0) entry.ions = {shared_ion};
    } else {
      entry.ions = kept[id];
      while (static_cast<int>(entry.ions.size()) < n &&
             next_free < free_order.size()) {
        entry.ions.push_back(free_order[next_free++]);
      }
      std::sort(entry.ions.begin(), entry.ions.end());
    }
    next.jobs.emplace(id, std::move(entry));
  }
  return next;
}

struct MaterializeConfig {
  const char* name;
  bool reuse_ids;        ///< a start may take a finished job's id again
  bool reallocate;       ///< ArbiterOptions::reallocate_running
  bool static_policy;    ///< STATIC instead of MCKP
  double no_direct;      ///< share of jobs whose curve lacks the 0-ION option
};

constexpr MaterializeConfig kMaterializeConfigs[] = {
    {"mckp", false, true, false, 0.2},
    {"reuse_ids", true, true, false, 0.2},
    {"static_pinned", false, false, true, 0.2},
    // Every curve needs an ION: more jobs than IONs forces MCKP's
    // shared-ION fallback (Section 3.1).
    {"shared_fallback", false, true, false, 1.0},
    // Id reuse with the shared-ION fallback in play.
    {"reuse_ids_shared_fallback", true, true, false, 1.0},
};

class MaterializeDiffFuzz
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MaterializeDiffFuzz, InPlaceMappingEqualsFromScratchReference) {
  const auto& cfg = kMaterializeConfigs[std::get<0>(GetParam())];
  const std::uint64_t seed = std::get<1>(GetParam()) * 6364136223846793005ULL +
                             fault_seed();
  IOFA_TRACE_SEED(fault_seed());
  SCOPED_TRACE(cfg.name);
  Rng rng(seed);

  platform::PerfModel model(platform::mn4_params());
  const auto grid = workload::mn4_scenario_grid();
  const auto ion_options = platform::default_ion_options();
  std::vector<AppEntry> shapes;
  for (const auto& pattern : grid) {
    shapes.push_back(AppEntry{
        "", pattern.compute_nodes, pattern.processes(),
        platform::curve_from_model(model, pattern, ion_options)});
  }
  auto random_app = [&] {
    const bool no_direct = rng.uniform01() < cfg.no_direct;
    AppEntry app = shapes[rng.index(shapes.size())];
    app.label = "app" + std::to_string(rng.index(9));
    if (no_direct) {
      std::vector<std::pair<int, MBps>> points;
      for (int opt : app.curve.options()) {
        if (opt > 0) points.emplace_back(opt, app.curve.at(opt));
      }
      if (!points.empty()) {
        app.curve = platform::BandwidthCurve(std::move(points));
      }
    }
    return app;
  };

  std::shared_ptr<ArbitrationPolicy> policy;
  if (cfg.static_policy) {
    policy = std::make_shared<StaticPolicy>();
  } else {
    policy = std::make_shared<MckpPolicy>();
  }
  int pool = 2 + static_cast<int>(rng.index(12));
  ArbiterOptions o{pool, std::nullopt, cfg.reallocate};
  if (cfg.static_policy) o.static_ratio = 8.0;
  Arbiter arb(policy, o);

  // Mirrors of everything the materialiser reads.
  std::map<JobId, AppEntry> running;
  std::set<int> failed;
  std::map<int, double> hints;
  JobId next_id = 1;
  std::vector<JobId> finished;  ///< ids that ran and are not running now
  auto pick_running = [&] {
    auto it = running.begin();
    std::advance(it, static_cast<long>(rng.index(running.size())));
    return it;
  };

  std::size_t arbitrations = 0;
  std::size_t shared_rounds = 0;
  auto check = [&](const Mapping& prev, int event) {
    const Mapping& got = arb.mapping();
    if (got.epoch == prev.epoch) {
      ASSERT_EQ(got, prev) << "mapping moved without an epoch, event "
                           << event;
      return;
    }
    ASSERT_EQ(got.epoch, prev.epoch + 1) << "event " << event;
    ++arbitrations;

    AllocationProblem prob;
    prob.pool = pool - static_cast<int>(failed.size());
    prob.static_ratio = o.static_ratio;
    for (const auto& [id, app] : running) prob.apps.push_back(app);
    const auto fresh = policy->allocate(prob);
    std::map<JobId, bool> shared;
    std::map<JobId, std::string> labels;
    std::size_t i = 0;
    bool any_shared = false;
    for (const auto& [id, app] : running) {
      const bool s = i < fresh.shared.size() && fresh.shared[i] != 0;
      any_shared |= s;
      shared[id] = s;
      labels[id] = app.label;
      if (cfg.reallocate) {
        ASSERT_TRUE(arb.last_counts().count(id));
        ASSERT_EQ(arb.last_counts().at(id), s ? 0 : fresh.ions[i])
            << "job " << id << " diverged from a fresh solve, event "
            << event;
      }
      ++i;
    }
    shared_rounds += any_shared ? 1 : 0;
    ASSERT_EQ(arb.last_counts().size(), running.size()) << "event " << event;
    const Mapping want = reference_materialize(
        prev, arb.last_counts(), shared, failed, hints, labels, pool);
    ASSERT_EQ(got, want) << "event " << event << "\ngot:\n"
                         << got.to_string() << "want:\n"
                         << want.to_string();
    check_mapping(got, pool);
  };

  auto finish = [&](std::map<JobId, AppEntry>::iterator it) {
    arb.job_finished(it->first);
    finished.push_back(it->first);
    running.erase(it);
  };

  for (int event = 0; event < 10'000; ++event) {
    const Mapping prev = arb.mapping();
    const double dice = rng.uniform01();
    const bool grow = running.size() < 4 ||
                      (running.size() < 28 && rng.uniform01() < 0.5);
    if (dice < 0.30) {
      if (grow) {
        JobId id = next_id;
        if (cfg.reuse_ids && !finished.empty() && rng.uniform01() < 0.5) {
          // Restart a finished id, often the one that just finished.
          const std::size_t k = rng.uniform01() < 0.5
                                    ? finished.size() - 1
                                    : rng.index(finished.size());
          id = finished[k];
          finished.erase(finished.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          ++next_id;
        }
        auto app = random_app();
        running[id] = app;
        arb.job_started(id, std::move(app));
      } else {
        finish(pick_running());
      }
    } else if (dice < 0.50 && !running.empty()) {
      finish(pick_running());
    } else if (dice < 0.56 && !running.empty()) {
      // Duplicate start: a running id starts again with a new profile.
      const auto it = pick_running();
      it->second = random_app();
      arb.job_started(it->first, it->second);
    } else if (dice < 0.61) {
      // Profile change; an unknown id must be a no-op.
      if (!running.empty() && rng.uniform01() < 0.8) {
        const auto it = pick_running();
        it->second = random_app();
        arb.job_updated(it->first, it->second);
      } else {
        arb.job_updated(next_id + 1000, random_app());
      }
    } else if (dice < 0.69) {
      const int ion = static_cast<int>(rng.index(
          static_cast<std::size_t>(pool)));
      failed.insert(ion);
      arb.ion_failed(ion);
    } else if (dice < 0.77) {
      const int ion = static_cast<int>(rng.index(
          static_cast<std::size_t>(pool)));
      failed.erase(ion);
      arb.ion_recovered(ion);
    } else if (dice < 0.92) {
      // Overload hints only reorder the next top-up; some clear.
      const int ion = static_cast<int>(rng.index(
          static_cast<std::size_t>(pool) + 1));
      const double load = rng.uniform01() < 0.2 ? 0.0 : rng.uniform(0.0, 4.0);
      if (ion < pool) {
        if (load <= 0.0) {
          hints.erase(ion);
        } else {
          hints[ion] = load;
        }
      }
      arb.set_load_hint(ion, load);
    } else if (dice < 0.96) {
      pool = 2 + static_cast<int>(rng.index(12));
      failed.erase(failed.lower_bound(pool), failed.end());
      arb.set_pool(pool);
    } else {
      // A second finish of a finished (or never started) id is a no-op.
      arb.job_finished(finished.empty() ? next_id + 1000
                                        : finished[rng.index(finished.size())]);
    }
    check(prev, event);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(arbitrations, 1000u);
  if (cfg.no_direct == 1.0) {
    EXPECT_GT(shared_rounds, 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MaterializeDiffFuzz,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(1u, 7u, 1337u)),
    [](const auto& info) {
      return std::string(kMaterializeConfigs[std::get<0>(info.param)].name) +
             "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace iofa::core
