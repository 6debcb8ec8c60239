// Unit tests for the warm-start MCKP tree (IncrementalMckp) and the
// Arbiter's use of it: O(log n) node merges per single-class delta,
// the full-rebuild trigger (pool resize), fixed-point edge cases (-inf,
// negative values, exact ties, the largest promised magnitudes), edge
// cases (empty problem, single job, empty class), and a same-seed
// byte-identical counter-dump determinism check in the fault-suite
// house style.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/arbiter.hpp"
#include "core/mckp.hpp"
#include "platform/profile.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::core {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("IOFA_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

#define IOFA_TRACE_SEED(seed) \
  SCOPED_TRACE("reproduce with IOFA_FAULT_SEED=" + std::to_string(seed))

MckpClass cls(std::initializer_list<std::pair<int, double>> items) {
  MckpClass out;
  for (auto [w, v] : items) out.push_back(MckpItem{w, v});
  return out;
}

/// Key-ordered oracle view of a class map, for fresh solve_mckp_dp runs.
std::vector<MckpClass> ordered(const std::map<std::uint64_t, MckpClass>& m) {
  std::vector<MckpClass> out;
  out.reserve(m.size());
  for (const auto& [key, c] : m) out.push_back(c);
  return out;
}

/// Each class's chosen weight as a tree's change walks reported it.
using Walked = std::map<std::uint64_t, int>;

/// The identity contract: same feasibility, same value (exact ==, not
/// NEAR - both solvers sum in fixed point and re-sum the chosen items
/// in class order), same weight and the same canonical choice vector.
void expect_identical(IncrementalMckp& inc, int capacity,
                      const std::map<std::uint64_t, MckpClass>& model,
                      Walked& walked) {
  const auto warm = inc.solve(capacity);
  const auto fresh = solve_mckp_dp(ordered(model), capacity);
  ASSERT_EQ(warm.has_value(), fresh.has_value()) << "capacity " << capacity;
  if (!warm) return;
  EXPECT_EQ(warm->value, fresh->value) << "capacity " << capacity;
  EXPECT_EQ(warm->weight, fresh->weight) << "capacity " << capacity;
  ASSERT_EQ(warm->choice.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(warm->choice[i], fresh->choice[i])
        << "class " << i << " capacity " << capacity;
  }
  // The Arbiter's change walk: its reports, applied to the weights the
  // earlier walks reported, give the same picks.
  std::vector<std::pair<std::uint64_t, int>> changes;
  ASSERT_TRUE(inc.solve_changes(capacity, changes));
  std::erase_if(walked, [&](const auto& kv) {
    return !model.contains(kv.first);
  });
  for (const auto& [key, w] : changes) walked[key] = w;
  Walked want;
  auto c = model.begin();
  for (const std::size_t j : warm->choice) {
    want[c->first] = c->second[j].weight;
    ++c;
  }
  EXPECT_EQ(walked, want) << "capacity " << capacity;
}

// --------------------------------------------------- table mechanics
TEST(IncrementalMckp, EmptyProblemSolvesToZero) {
  IncrementalMckp inc;
  inc.reset(8);
  const auto sol = inc.solve(8);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->value, 0.0);
  EXPECT_EQ(sol->weight, 0);
  EXPECT_TRUE(sol->choice.empty());
  EXPECT_EQ(inc.nodes_merged(), 0u);
}

TEST(IncrementalMckp, SingleJobMatchesFreshDp) {
  IncrementalMckp inc;
  Walked walked;
  inc.reset(12);
  std::map<std::uint64_t, MckpClass> model;
  model[5] = cls({{0, 1.0}, {2, 5.0}, {4, 9.0}});
  inc.upsert(5, model[5]);
  for (int cap : {0, 1, 2, 3, 4, 12}) {
    expect_identical(inc, cap, model, walked);
  }
}

/// Node merges one single-class delta costs.
template <typename Edit>
std::uint64_t merges_of(IncrementalMckp& inc, Edit&& edit) {
  const std::uint64_t before = inc.nodes_merged();
  edit();
  return inc.nodes_merged() - before;
}

TEST(IncrementalMckp, SingleClassDeltaMergesLogarithmicallyManyNodes) {
  // An insert, a replace or an erase re-merges only the nodes whose
  // subtree changed: O(log n), checked against c * ceil(log2 n) with
  // c = 3 (the treap's expected depth is ~1.4 log2 n).
  for (const std::size_t n : {std::size_t{4}, std::size_t{256},
                              std::size_t{4096}}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Rng rng(n);
    std::vector<std::pair<std::uint64_t, MckpClass>> classes;
    for (std::uint64_t k = 1; k <= n; ++k) {
      classes.emplace_back(2 * k, cls({{0, 1.0}, {1, rng.uniform(0.0, 9.0)},
                                       {2, rng.uniform(0.0, 9.0)}}));
    }
    IncrementalMckp inc;
    inc.assign(12, classes);
    EXPECT_EQ(inc.nodes_merged(), n);  // a bulk load merges each node once

    const auto bound = static_cast<std::uint64_t>(
        3.0 * std::ceil(std::log2(static_cast<double>(n))));
    std::uint64_t worst = 0;
    const auto measure = [&](auto&& edit) {
      worst = std::max(worst, merges_of(inc, edit));
    };
    for (int round = 0; round < 64; ++round) {
      const std::uint64_t key = 2 * (1 + rng.index(n));
      // Replace in place, erase, re-insert, and insert then erase a new
      // key between two existing ones.
      measure([&] { inc.upsert(key, cls({{1, rng.uniform(0.0, 9.0)}})); });
      measure([&] { inc.erase(key); });
      measure([&] { inc.upsert(key, cls({{0, 1.0}, {2, 5.0}})); });
      measure([&] { inc.upsert(key + 1, cls({{0, 2.0}})); });
      measure([&] { inc.erase(key + 1); });
    }
    EXPECT_LE(worst, bound);
    // An absent key is not an edit.
    EXPECT_EQ(merges_of(inc, [&] { EXPECT_FALSE(inc.erase(1)); }), 0u);
  }
}

TEST(IncrementalMckp, SingleClassDeltaWalksLogarithmicallyManyNodes) {
  // The change walk after one delta descends only into the nodes it
  // re-merged and those whose weight moved: every merged node, plus the
  // root paths of the few classes whose pick shifted. Checked against
  // c * ceil(log2 n) with c = 6 (measured worst: 2.9 at n = 256, 3.4 at
  // n = 4096, with at most 2 classes changing per delta).
  for (const std::size_t n : {std::size_t{256}, std::size_t{4096}}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Rng rng(n);
    std::vector<std::pair<std::uint64_t, MckpClass>> classes;
    for (std::uint64_t k = 1; k <= n; ++k) {
      classes.emplace_back(2 * k, cls({{0, 1.0}, {1, rng.uniform(0.0, 9.0)},
                                       {2, rng.uniform(0.0, 9.0)}}));
    }
    IncrementalMckp inc;
    inc.assign(12, classes);
    std::vector<std::pair<std::uint64_t, int>> changes;
    ASSERT_TRUE(inc.solve_changes(12, changes));
    EXPECT_EQ(inc.nodes_walked(), n);  // the first walk visits all...
    EXPECT_EQ(changes.size(), n);      // ...and every class is new

    const auto bound = static_cast<std::uint64_t>(
        6.0 * std::ceil(std::log2(static_cast<double>(n))));
    std::uint64_t worst = 0;
    const auto measure = [&](auto&& edit) {
      const std::uint64_t merges = merges_of(inc, edit);
      const std::uint64_t before = inc.nodes_walked();
      ASSERT_TRUE(inc.solve_changes(12, changes));
      const std::uint64_t visits = inc.nodes_walked() - before;
      EXPECT_GE(visits, merges);  // every re-merged node is revisited
      worst = std::max(worst, visits);
    };
    for (int round = 0; round < 64; ++round) {
      const std::uint64_t key = 2 * (1 + rng.index(n));
      measure([&] { inc.upsert(key, cls({{1, rng.uniform(0.0, 9.0)}})); });
      measure([&] { inc.erase(key); });
      measure([&] { inc.upsert(key, cls({{0, 1.0}, {2, 5.0}})); });
      measure([&] { inc.upsert(key + 1, cls({{0, 2.0}})); });
      measure([&] { inc.erase(key + 1); });
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_LE(worst, bound);
    // With nothing merged and the same capacity, a walk visits nothing.
    const std::uint64_t before = inc.nodes_walked();
    ASSERT_TRUE(inc.solve_changes(12, changes));
    EXPECT_EQ(inc.nodes_walked(), before);
    EXPECT_TRUE(changes.empty());
  }
}

TEST(IncrementalMckp, AppendOnlyRecomputesOneLayer) {
  constexpr std::uint64_t kN = 64;
  IncrementalMckp inc;
  Walked walked;
  std::vector<std::pair<std::uint64_t, MckpClass>> classes;
  for (std::uint64_t k = 1; k <= kN; ++k) {
    classes.emplace_back(k, cls({{0, 1.0}, {1, 5.0 + double(k)}}));
  }
  inc.assign(6, classes);
  EXPECT_EQ(inc.nodes_merged(), kN);

  // A job arriving with a higher id lands at the end: one new leaf and
  // its root path are merged, every other subtree is reused verbatim.
  const auto work = merges_of(inc, [&] {
    inc.upsert(kN + 5, cls({{0, 2.0}, {2, 8.0}}));
  });
  EXPECT_GE(work, 1u);
  EXPECT_LE(work, 3u * 7u);  // c * ceil(log2 65), c = 3, well below 65
  EXPECT_EQ(inc.size(), kN + 1);

  std::map<std::uint64_t, MckpClass> model;
  for (auto& [k, c] : classes) model[k] = c;
  model[kN + 5] = cls({{0, 2.0}, {2, 8.0}});
  expect_identical(inc, 6, model, walked);
}

TEST(IncrementalMckp, MiddleDeltaRecomputesOnlyTheSuffix) {
  // A middle delta costs at most what a suffix recompute from its slot
  // would (and, in the tree, only the slot's root path).
  constexpr std::uint64_t kN = 64;
  IncrementalMckp inc;
  Walked walked;
  std::vector<std::pair<std::uint64_t, MckpClass>> classes;
  for (std::uint64_t k = 1; k <= kN; ++k) {
    classes.emplace_back(k, cls({{0, 0.5}, {1, double(k)}}));
  }
  inc.assign(4, classes);
  EXPECT_EQ(inc.nodes_merged(), kN);
  const std::uint64_t bound = 3u * 6u;  // c * ceil(log2 64), c = 3

  // Replacing key 33 (slot 32): a suffix pass would be 32 layers.
  const auto replace_work = merges_of(inc, [&] {
    inc.upsert(33, cls({{0, 0.1}, {2, 9.0}}));
  });
  EXPECT_GE(replace_work, 1u);
  EXPECT_LE(replace_work, bound);
  EXPECT_LT(replace_work, kN - 32);

  // Erasing slot 0: a suffix pass would recompute the remaining 63.
  const auto erase_work = merges_of(inc, [&] { EXPECT_TRUE(inc.erase(1)); });
  EXPECT_LE(erase_work, bound);
  EXPECT_LT(erase_work, kN - 1);
  // Absent key: no-op, no merge.
  EXPECT_EQ(merges_of(inc, [&] { EXPECT_FALSE(inc.erase(1)); }), 0u);

  std::map<std::uint64_t, MckpClass> model;
  for (auto& [k, c] : classes) model[k] = c;
  model[33] = cls({{0, 0.1}, {2, 9.0}});
  model.erase(1);
  for (int cap : {0, 2, 4}) expect_identical(inc, cap, model, walked);
}

TEST(IncrementalMckp, CapacityIsAQueryNotAStructure) {
  // The same root answers every capacity <= max_weight - this is what
  // makes ION fail/recover a root-scan-only operation.
  IncrementalMckp inc;
  Walked walked;
  std::map<std::uint64_t, MckpClass> model;
  model[1] = cls({{0, 195.7}, {1, 77.6}, {2, 150.0}, {4, 390.0}});
  model[2] = cls({{0, 150.0}, {1, 597.2}, {2, 594.2}, {4, 610.0}});
  model[3] = cls({{0, 780.0}, {1, 268.4}, {2, 900.0}, {4, 2600.0}});
  std::vector<std::pair<std::uint64_t, MckpClass>> classes(model.begin(),
                                                           model.end());
  inc.assign(12, classes);
  const auto before = inc.nodes_merged();
  for (int cap = 0; cap <= 12; ++cap) {
    expect_identical(inc, cap, model, walked);
  }
  EXPECT_EQ(inc.nodes_merged(), before);  // solves merge nothing
}

TEST(IncrementalMckp, EmptyClassMakesProblemInfeasible) {
  IncrementalMckp inc;
  inc.reset(4);
  inc.upsert(1, cls({{1, 5.0}}));
  std::vector<std::pair<std::uint64_t, int>> changes;
  ASSERT_TRUE(inc.solve_changes(4, changes));
  inc.upsert(2, MckpClass{});
  EXPECT_FALSE(inc.solve(4).has_value());
  EXPECT_FALSE(inc.solve_changes(4, changes));
  EXPECT_TRUE(changes.empty());
  // Removing the empty class restores feasibility.
  EXPECT_TRUE(inc.erase(2));
  const auto sol = inc.solve(4);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->value, 5.0);
  // The caller fell back to another solve in between: the walk after an
  // infeasible one reports every class, changed or not.
  ASSERT_TRUE(inc.solve_changes(4, changes));
  EXPECT_EQ(changes, (std::vector<std::pair<std::uint64_t, int>>{{1, 1}}));
}

TEST(IncrementalMckp, ItemsHeavierThanMaxWeightNeverChosen) {
  IncrementalMckp inc;
  Walked walked;
  inc.reset(4);
  inc.upsert(1, cls({{1, 3.0}, {100, 999.0}}));
  const auto sol = inc.solve(4);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->value, 3.0);
  // ...and the table matches the fresh DP, which skips them too.
  std::map<std::uint64_t, MckpClass> model;
  model[1] = cls({{1, 3.0}, {100, 999.0}});
  for (int cap : {0, 1, 4}) expect_identical(inc, cap, model, walked);
}

TEST(IncrementalMckp, MinWeightsExceedingCapacityInfeasible) {
  IncrementalMckp inc;
  inc.reset(8);
  inc.upsert(1, cls({{2, 1.0}}));
  inc.upsert(2, cls({{2, 1.0}}));
  EXPECT_FALSE(inc.solve(3).has_value());
  EXPECT_TRUE(inc.solve(4).has_value());
}

// ------------------------------------------------ fixed-point edges
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

TEST(IncrementalMckp, NegativeAndMinusInfinityItemsMatchFreshDp) {
  IncrementalMckp inc;
  Walked walked;
  inc.reset(6);
  std::map<std::uint64_t, MckpClass> model;
  model[1] = cls({{1, kNegInf}, {2, -7.5}});
  model[2] = cls({{0, -3.0}, {1, kNegInf}, {3, -0.25}});
  model[3] = cls({{2, kNegInf}});  // forced: every selection is -inf
  for (const auto& [k, c] : model) inc.upsert(k, c);
  for (int cap = 0; cap <= 6; ++cap) expect_identical(inc, cap, model, walked);
  const auto forced = inc.solve(6);
  ASSERT_TRUE(forced.has_value());
  EXPECT_EQ(forced->value, kNegInf);
  // All -inf selections tie: the lowest total weight wins, then the
  // reverse-lex smallest vector.
  EXPECT_EQ(forced->weight, 3);
  EXPECT_EQ(forced->choice, (std::vector<std::size_t>{0, 0, 0}));

  // Without the forced class the finite optimum wins.
  inc.erase(3);
  model.erase(3);
  for (int cap = 0; cap <= 6; ++cap) expect_identical(inc, cap, model, walked);
  const auto finite = inc.solve(6);
  ASSERT_TRUE(finite.has_value());
  EXPECT_EQ(finite->value, -7.75);  // (2,-7.5) + (3,-0.25)
}

TEST(IncrementalMckp, ValueTiesTakeLowestWeightThenReverseLexVector) {
  // Integer-valued items with free upgrades: the optimum is reached by
  // several vectors, and at capacity 6 at weights 4, 5 and 6.
  const MckpClass outer = cls({{0, 1.0}, {1, 2.0}, {2, 2.0}});
  const MckpClass inner = cls({{1, 1.0}, {0, 0.0}, {2, 2.0}});
  std::map<std::uint64_t, MckpClass> model{{7, outer}, {8, inner},
                                           {9, outer}};
  IncrementalMckp inc;
  Walked walked;
  inc.reset(6);
  for (const auto& [k, c] : model) inc.upsert(k, c);
  struct Want {
    int capacity;
    double value;
    int weight;
    std::vector<std::size_t> choice;
  };
  // Capacity 2: {0,0,1} {0,2,0} {1,0,0} {1,1,1} all give 4 at weight
  // 2; the last class's lowest index first, then the middle one's.
  // Capacity 3: {0,2,1} {1,0,1} {1,2,0} give 5. Capacity 6: 6 at
  // weights 4..6, the lowest weight wins.
  for (const Want& want : {Want{2, 4.0, 2, {1, 0, 0}},
                           Want{3, 5.0, 3, {1, 2, 0}},
                           Want{6, 6.0, 4, {1, 2, 1}}}) {
    const auto sol = inc.solve(want.capacity);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->value, want.value);
    EXPECT_EQ(sol->weight, want.weight);
    EXPECT_EQ(sol->choice, want.choice) << "capacity " << want.capacity;
  }
  for (int cap = 0; cap <= 6; ++cap) expect_identical(inc, cap, model, walked);

  // Duplicate items at one weight: the lower index wins the tie.
  model[10] = cls({{1, 4.0}, {1, 4.0}, {0, 0.0}});
  inc.upsert(10, model[10]);
  for (int cap = 0; cap <= 6; ++cap) expect_identical(inc, cap, model, walked);
}

TEST(IncrementalMckp, LargestPromisedMagnitudesStayExact) {
  // kMckpMaxClasses classes at +-kMckpMaxValue sum to +-2^62 in fixed
  // point without overflow, and one resolution step (2^-32 MB/s) in
  // the first class still decides its pick.
  const double step = std::ldexp(1.0, -kMckpFracBits);
  for (const double sign : {1.0, -1.0}) {
    SCOPED_TRACE(sign > 0 ? "positive" : "negative");
    const double top = sign * kMckpMaxValue;
    std::vector<std::pair<std::uint64_t, MckpClass>> classes;
    std::vector<MckpClass> ordered_classes;
    for (std::uint64_t k = 0; k < kMckpMaxClasses; ++k) {
      MckpClass c = k == 0 ? cls({{0, top - sign * step}, {1, top},
                                  {2, top - 2.0 * sign * step}})
                           : cls({{0, top}});
      ordered_classes.push_back(c);
      classes.emplace_back(k, std::move(c));
    }
    IncrementalMckp inc;
    inc.assign(2, std::move(classes));
    const auto warm = inc.solve(2);
    const auto fresh = solve_mckp_dp(ordered_classes, 2);
    ASSERT_TRUE(warm.has_value());
    ASSERT_TRUE(fresh.has_value());
    // The higher value wins; negative, the step is the other way.
    const std::size_t want = sign > 0 ? 1u : 2u;
    EXPECT_EQ(warm->choice[0], want);
    EXPECT_EQ(fresh->choice[0], want);
    EXPECT_EQ(warm->value, fresh->value);
    EXPECT_EQ(warm->weight, fresh->weight);
    EXPECT_EQ(warm->choice, fresh->choice);
    EXPECT_NEAR(warm->value, top * double(kMckpMaxClasses),
                1e-9 * kMckpMaxValue * double(kMckpMaxClasses));
  }
}

TEST(IncrementalMckp, OutOfRangeValuesClampToThePromisedMagnitude) {
  // Beyond +-kMckpMaxValue an item compares as the bound itself, so
  // ties resolve canonically instead of overflowing.
  IncrementalMckp inc;
  Walked walked;
  inc.reset(2);
  std::map<std::uint64_t, MckpClass> model;
  model[1] = cls({{0, 4.0 * kMckpMaxValue},
                  {1, std::numeric_limits<double>::infinity()}});
  inc.upsert(1, model[1]);
  expect_identical(inc, 2, model, walked);
  const auto sol = inc.solve(2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->choice[0], 0u);  // equal after clamping: lower weight
}

// ------------------------------------------ arbiter warm-path triggers
platform::BandwidthCurve ramp_curve(double scale) {
  return platform::BandwidthCurve({{0, 1.0 * scale},
                                   {1, 100.0 * scale},
                                   {2, 190.0 * scale},
                                   {4, 350.0 * scale}});
}

AppEntry job(const std::string& label, double scale = 1.0) {
  return AppEntry{label, 16, 256, ramp_curve(scale)};
}

double counter_sum(telemetry::Registry& reg, const std::string& name) {
  double total = 0.0;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

TEST(ArbiterWarmStart, FirstSolveRebuildsThenDeltasGoIncremental) {
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 8;
  o.registry = &reg;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);

  arb.job_started(1, job("A"));  // cold table: full rebuild
  EXPECT_EQ(counter_sum(reg, "core.arbiter.full_fallbacks"), 1.0);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.incremental_solves"), 0.0);

  arb.job_started(2, job("B"));  // single-class delta
  arb.job_finished(1);           // single-class delta
  EXPECT_EQ(counter_sum(reg, "core.arbiter.full_fallbacks"), 1.0);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.incremental_solves"), 2.0);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.solves"), 3.0);
}

TEST(ArbiterWarmStart, PoolResizeIsStructural) {
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 8;
  o.registry = &reg;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);
  arb.job_started(1, job("A"));
  arb.job_started(2, job("B"));
  const double before = counter_sum(reg, "core.arbiter.full_fallbacks");
  arb.set_pool(6);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.full_fallbacks"), before + 1.0);
  // The shrunken pool still allocates correctly afterwards.
  int total = 0;
  for (const auto& [id, e] : arb.mapping().jobs) {
    total += static_cast<int>(e.ions.size());
  }
  EXPECT_LE(total, 6);
}

TEST(ArbiterWarmStart, CurveChangeIsOneLeafUpsert) {
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 8;
  o.registry = &reg;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);
  arb.job_started(1, job("A"));
  arb.job_started(2, job("B"));
  const double fallbacks = counter_sum(reg, "core.arbiter.full_fallbacks");
  const double incremental =
      counter_sum(reg, "core.arbiter.incremental_solves");
  const auto epoch_before = arb.mapping().epoch;

  // Job 1's profile steepens dramatically: it must win more IONs, and
  // the warm tree takes the new curve as one leaf update.
  const auto& m = arb.job_updated(1, job("A", 50.0));
  EXPECT_EQ(counter_sum(reg, "core.arbiter.incremental_solves"),
            incremental + 1.0);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.full_fallbacks"), fallbacks);
  EXPECT_GT(m.epoch, epoch_before);
  ASSERT_TRUE(m.jobs.count(1));
  EXPECT_EQ(m.jobs.at(1).ions.size(), 4u);  // the curve's peak option

  // Updating an unknown job is a no-op, not a solve.
  const double solves = counter_sum(reg, "core.arbiter.solves");
  arb.job_updated(99, job("C"));
  EXPECT_EQ(counter_sum(reg, "core.arbiter.solves"), solves);
}

TEST(ArbiterWarmStart, FinishingAnUnknownJobIsANoOp) {
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 8;
  o.registry = &reg;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);
  arb.job_started(1, job("A"));
  const auto epoch = arb.mapping().epoch;
  const double solves = counter_sum(reg, "core.arbiter.solves");
  const double items = counter_sum(reg, "core.arbiter.items");

  arb.job_finished(99);
  arb.job_finished(99);
  EXPECT_EQ(arb.mapping().epoch, epoch);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.solves"), solves);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.items"), items);
  EXPECT_EQ(arb.running_jobs(), 1u);

  // A known finish still goes through.
  arb.job_finished(1);
  EXPECT_GT(arb.mapping().epoch, epoch);
  EXPECT_TRUE(arb.mapping().jobs.empty());
}

TEST(ArbiterWarmStart, DisabledIncrementalNeverTouchesWarmCounters) {
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 8;
  o.registry = &reg;
  o.incremental = false;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);
  arb.job_started(1, job("A"));
  arb.job_started(2, job("B"));
  arb.job_finished(1);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.incremental_solves"), 0.0);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.full_fallbacks"), 0.0);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.solves"), 3.0);
}

TEST(ArbiterWarmStart, GreedyPolicyHasNoWarmPath) {
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 8;
  o.registry = &reg;
  MckpPolicy::Options popts;
  popts.greedy = true;
  Arbiter arb(std::make_shared<MckpPolicy>(popts), o);
  EXPECT_FALSE(MckpPolicy(popts).supports_warm_start());
  arb.job_started(1, job("A"));
  arb.job_started(2, job("B"));
  EXPECT_EQ(counter_sum(reg, "core.arbiter.incremental_solves"), 0.0);
  EXPECT_EQ(counter_sum(reg, "core.arbiter.full_fallbacks"), 0.0);
}

TEST(ArbiterWarmStart, SharedFallbackStillWorksThroughThePolicy) {
  // Pool too small for every job's minimum: the warm primary solve is
  // infeasible and the policy's Section 3.1 shared fallback must kick
  // in, counted as a full fallback.
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 2;
  o.registry = &reg;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);
  // Curves with no 0/1-ION option: each job needs >= 2 IONs.
  const platform::BandwidthCurve steep({{2, 100.0}, {4, 180.0}});
  arb.job_started(1, AppEntry{"A", 16, 256, steep});
  const auto& m = arb.job_started(2, AppEntry{"B", 16, 256, steep});
  bool any_shared = false;
  for (const auto& [id, e] : m.jobs) any_shared |= e.shared;
  EXPECT_TRUE(any_shared);
  EXPECT_GE(counter_sum(reg, "core.arbiter.full_fallbacks"), 1.0);
}

// ----------------------------------------------- determinism (dumps)
/// Deterministic warm-path counters only: solve_us and the wall-time
/// gauges vary run to run, the decision counters must not.
std::string warm_counter_dump(telemetry::Registry& reg) {
  static constexpr const char* kAllow[] = {
      "core.arbiter.solves",
      "core.arbiter.incremental_solves",
      "core.arbiter.full_fallbacks",
      "core.arbiter.items",
      "arbiter.resolves_on_failure"};
  std::ostringstream out;
  for (const auto& s : reg.snapshot().samples) {
    bool keep = false;
    for (const char* name : kAllow) keep = keep || s.name == name;
    if (!keep) continue;
    out << s.name;
    for (const auto& [k, v] : s.labels) out << ' ' << k << '=' << v;
    out << " = " << s.value << '\n';
  }
  return out.str();
}

std::string run_seeded_churn(std::uint64_t seed, telemetry::Registry& reg) {
  ArbiterOptions o;
  o.pool = 10;
  o.registry = &reg;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);
  Rng rng(seed);
  JobId next_id = 1;
  std::vector<JobId> running;
  for (int step = 0; step < 120; ++step) {
    const double dice = rng.uniform01();
    if (running.empty() || dice < 0.5) {
      const JobId id = next_id++;
      arb.job_started(id, job("J", 1.0 + rng.uniform01()));
      running.push_back(id);
    } else if (dice < 0.8) {
      const std::size_t at = rng.index(running.size());
      arb.job_finished(running[at]);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (dice < 0.9) {
      arb.ion_failed(static_cast<int>(rng.index(10)));
    } else {
      arb.ion_recovered(static_cast<int>(rng.index(10)));
    }
  }
  return warm_counter_dump(reg);
}

TEST(ArbiterWarmStart, SameSeedProducesByteIdenticalCounterDump) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  telemetry::Registry reg_a;
  telemetry::Registry reg_b;
  const std::string a = run_seeded_churn(seed, reg_a);
  const std::string b = run_seeded_churn(seed, reg_b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "warm-path decisions must be deterministic";
}

}  // namespace
}  // namespace iofa::core
