// Tests for the arbitration policies, including the exact reproduction
// of the paper's Table 4 and the Section 5.2 aggregate ratios.

#include <gtest/gtest.h>

#include <map>

#include "core/policies.hpp"
#include "platform/profile.hpp"
#include "workload/kernels.hpp"

namespace iofa::core {
namespace {

/// The Section 5.2 problem: six applications, reference curves.
AllocationProblem section52_problem(int pool) {
  AllocationProblem prob;
  prob.pool = pool;
  prob.static_ratio = 32.0;  // 1 ION per 32 compute nodes at deployment
  const auto db = platform::g5k_reference_profiles();
  for (const auto& app : workload::section52_applications()) {
    prob.apps.push_back(AppEntry{app.label, app.compute_nodes,
                                 app.processes, db.at(app.label)});
  }
  return prob;
}

std::map<std::string, int> by_label(const AllocationProblem& prob,
                                    const Allocation& alloc) {
  std::map<std::string, int> out;
  for (std::size_t i = 0; i < prob.apps.size(); ++i) {
    out[prob.apps[i].label] = alloc.ions[i];
  }
  return out;
}

// ------------------------------------------------------------- totals
TEST(AllocationProblem, Totals) {
  const auto prob = section52_problem(12);
  EXPECT_EQ(prob.total_compute_nodes(), 272);
  EXPECT_EQ(prob.total_processes(), 128 + 512 + 128 + 512 + 64 + 512);
}

TEST(AllocationTest, AggregateBwSumsCurveValues) {
  auto prob = section52_problem(12);
  Allocation a;
  a.ions.assign(prob.apps.size(), 0);
  MBps expected = 0.0;
  for (const auto& app : prob.apps) expected += app.curve.at(0);
  EXPECT_NEAR(a.aggregate_bw(prob), expected, 1e-9);
}

// ---------------------------------------------------------------- ZERO
TEST(ZeroPolicy, AllDirect) {
  const auto prob = section52_problem(12);
  const auto alloc = ZeroPolicy().allocate(prob);
  for (int n : alloc.ions) EXPECT_EQ(n, 0);
  EXPECT_EQ(alloc.total_ions(), 0);
}

TEST(ZeroPolicy, Section52AggregateIs2017) {
  const auto prob = section52_problem(12);
  EXPECT_NEAR(ZeroPolicy().allocate(prob).aggregate_bw(prob), 2017.9, 0.1);
}

// ----------------------------------------------------------------- ONE
TEST(OnePolicy, OneEach) {
  const auto prob = section52_problem(12);
  const auto alloc = OnePolicy().allocate(prob);
  for (int n : alloc.ions) EXPECT_EQ(n, 1);
}

TEST(OnePolicy, GlobalSlowdownVersusZeroMatchesPaper) {
  // Section 5.2: "the ONE policy represents a global slowdown (39.17%)
  // compared to directly accessing the PFS". Our reference curves land
  // within a few points of that.
  const auto prob = section52_problem(12);
  const MBps zero = ZeroPolicy().allocate(prob).aggregate_bw(prob);
  const MBps one = OnePolicy().allocate(prob).aggregate_bw(prob);
  const double slowdown = (zero - one) / zero;
  EXPECT_NEAR(slowdown, 0.3917, 0.05);
}

// -------------------------------------------------------------- STATIC
TEST(StaticPolicy, Table4Allocations) {
  const auto prob = section52_problem(12);
  const auto alloc = StaticPolicy().allocate(prob);
  const auto m = by_label(prob, alloc);
  EXPECT_EQ(m.at("BT-C"), 1);
  EXPECT_EQ(m.at("BT-D"), 2);
  EXPECT_EQ(m.at("IOR-MPI"), 1);
  EXPECT_EQ(m.at("POSIX-L"), 2);
  EXPECT_EQ(m.at("MAD"), 1);
  EXPECT_EQ(m.at("S3D"), 2);
}

TEST(StaticPolicy, Table4Bandwidth1478) {
  const auto prob = section52_problem(12);
  EXPECT_NEAR(StaticPolicy().allocate(prob).aggregate_bw(prob), 1478.0,
              0.1);
}

TEST(StaticPolicy, RepairsOverflowAtTinyPools) {
  const auto prob = section52_problem(4);
  const auto alloc = StaticPolicy().allocate(prob);
  EXPECT_LE(alloc.total_ions(), 4);
}

TEST(StaticPolicy, DerivesRatioWhenUnset) {
  auto prob = section52_problem(12);
  prob.static_ratio.reset();
  const auto alloc = StaticPolicy().allocate(prob);
  EXPECT_LE(alloc.total_ions(), 12);
  for (int n : alloc.ions) EXPECT_GE(n, 1);  // STATIC always forwards
}

// ------------------------------------------------------------ SIZE/PROC
TEST(SizePolicy, MatchesStaticOnTable4) {
  // The paper notes SIZE and STATIC coincide for this job mix.
  const auto prob = section52_problem(12);
  EXPECT_EQ(SizePolicy().allocate(prob).ions,
            StaticPolicy().allocate(prob).ions);
}

TEST(ProcessPolicy, GivesMadZeroAtTable4) {
  // MAD has only 64 processes; proportional-by-process rounds it to 0.
  const auto prob = section52_problem(12);
  const auto m = by_label(prob, ProcessPolicy().allocate(prob));
  EXPECT_EQ(m.at("MAD"), 0);
}

TEST(ProcessPolicy, RespectsPool) {
  for (int pool : {4, 8, 12, 16, 24, 36}) {
    const auto prob = section52_problem(pool);
    EXPECT_LE(ProcessPolicy().allocate(prob).total_ions(), pool);
  }
}

// -------------------------------------------------------------- ORACLE
TEST(OraclePolicy, PicksPerAppBest) {
  const auto prob = section52_problem(12);
  const auto m = by_label(prob, OraclePolicy().allocate(prob));
  EXPECT_EQ(m.at("IOR-MPI"), 8);
  EXPECT_EQ(m.at("S3D"), 0);
  EXPECT_EQ(m.at("BT-C"), 4);
}

TEST(OraclePolicy, IgnoresPoolLimit) {
  const auto prob = section52_problem(4);
  const auto alloc = OraclePolicy().allocate(prob);
  EXPECT_EQ(alloc.total_ions(), 36);
  EXPECT_FALSE(alloc.respects_pool);
}

TEST(OraclePolicy, AggregateIsUpperBound) {
  for (int pool : {4, 12, 24, 36}) {
    const auto prob = section52_problem(pool);
    const MBps oracle = OraclePolicy().allocate(prob).aggregate_bw(prob);
    for (const auto& policy : standard_policies()) {
      EXPECT_LE(policy->allocate(prob).aggregate_bw(prob), oracle + 1e-6)
          << policy->name();
    }
  }
}

// ---------------------------------------------------------------- MCKP
TEST(MckpPolicy, Table4Allocations) {
  const auto prob = section52_problem(12);
  const auto m = by_label(prob, MckpPolicy().allocate(prob));
  EXPECT_EQ(m.at("BT-C"), 0);
  EXPECT_EQ(m.at("BT-D"), 1);
  EXPECT_EQ(m.at("IOR-MPI"), 8);
  EXPECT_EQ(m.at("POSIX-L"), 2);
  EXPECT_EQ(m.at("MAD"), 0);
  EXPECT_EQ(m.at("S3D"), 0);
}

TEST(MckpPolicy, Table4AggregateAndRatios) {
  const auto prob = section52_problem(12);
  const MBps mckp = MckpPolicy().allocate(prob).aggregate_bw(prob);
  EXPECT_NEAR(mckp, 6791.9, 0.1);
  // Section 5.2: MCKP is 4.59x STATIC/SIZE and 4.1x PROCESS.
  const MBps st = StaticPolicy().allocate(prob).aggregate_bw(prob);
  const MBps pr = ProcessPolicy().allocate(prob).aggregate_bw(prob);
  EXPECT_NEAR(mckp / st, 4.59, 0.02);
  EXPECT_NEAR(mckp / pr, 4.10, 0.02);
}

TEST(MckpPolicy, MatchesOracleAt36Ions) {
  const auto prob = section52_problem(36);
  const MBps mckp = MckpPolicy().allocate(prob).aggregate_bw(prob);
  const MBps oracle = OraclePolicy().allocate(prob).aggregate_bw(prob);
  EXPECT_NEAR(mckp, oracle, 1e-6);
}

TEST(MckpPolicy, BelowOracleAt32Ions) {
  const auto prob = section52_problem(32);
  const MBps mckp = MckpPolicy().allocate(prob).aggregate_bw(prob);
  const MBps oracle = OraclePolicy().allocate(prob).aggregate_bw(prob);
  EXPECT_LT(mckp, oracle);
}

TEST(MckpPolicy, NeverWorseThanStatic) {
  // Section 3.2: "MCKP never impacts bandwidth negatively when compared
  // to the STATIC policy."
  for (int pool = 4; pool <= 36; pool += 2) {
    const auto prob = section52_problem(pool);
    const MBps mckp = MckpPolicy().allocate(prob).aggregate_bw(prob);
    const MBps st = StaticPolicy().allocate(prob).aggregate_bw(prob);
    EXPECT_GE(mckp, st - 1e-9) << "pool=" << pool;
  }
}

TEST(MckpPolicy, MonotoneInPoolSize) {
  MBps prev = 0.0;
  for (int pool = 0; pool <= 36; ++pool) {
    const auto prob = section52_problem(pool);
    const MBps bw = MckpPolicy().allocate(prob).aggregate_bw(prob);
    EXPECT_GE(bw, prev - 1e-9) << "pool=" << pool;
    prev = bw;
  }
}

TEST(MckpPolicy, RespectsPoolAlways) {
  for (int pool = 0; pool <= 40; ++pool) {
    const auto prob = section52_problem(pool);
    const auto alloc = MckpPolicy().allocate(prob);
    EXPECT_TRUE(alloc.respects_pool);
    EXPECT_LE(alloc.total_ions(), std::max(pool, 0));
  }
}

TEST(MckpPolicy, GreedyVariantCloseToExact) {
  for (int pool : {8, 12, 24}) {
    const auto prob = section52_problem(pool);
    const MBps exact = MckpPolicy().allocate(prob).aggregate_bw(prob);
    MckpPolicy::Options opts;
    opts.greedy = true;
    const MBps greedy = MckpPolicy(opts).allocate(prob).aggregate_bw(prob);
    EXPECT_LE(greedy, exact + 1e-9);
    EXPECT_GE(greedy, 0.85 * exact);  // hull greedy is near-optimal here
  }
}

TEST(MckpPolicy, SharedFallbackWhenDirectForbidden) {
  // Curves without the 0-ION option and a pool smaller than one ION per
  // app force the Section 3.1 shared-node fallback.
  AllocationProblem prob;
  prob.pool = 2;
  for (int i = 0; i < 4; ++i) {
    prob.apps.push_back(AppEntry{
        "app" + std::to_string(i), 8, 32,
        platform::BandwidthCurve({{1, 100.0 + i}, {2, 150.0 + i}})});
  }
  const auto alloc = MckpPolicy().allocate(prob);
  EXPECT_TRUE(alloc.respects_pool);
  EXPECT_LE(alloc.total_ions(), 2);
  ASSERT_EQ(alloc.shared.size(), 4u);
  int n_shared = 0;
  for (char s : alloc.shared) n_shared += s != 0;
  EXPECT_GE(n_shared, 3);  // at most one app can hold the arbitrated node
}

TEST(StandardPolicies, NamesAndCount) {
  const auto policies = standard_policies();
  ASSERT_EQ(policies.size(), 7u);
  std::vector<std::string> names;
  for (const auto& p : policies) names.push_back(p->name());
  EXPECT_EQ(names, (std::vector<std::string>{"ZERO", "ONE", "STATIC",
                                             "SIZE", "PROCESS", "MCKP",
                                             "ORACLE"}));
}

}  // namespace
}  // namespace iofa::core
