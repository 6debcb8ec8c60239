// Tests for the multi-tenant QoS subsystem (src/qos): knob validation,
// the hierarchical token bucket's borrow/reclaim state machine and its
// conservation invariant, the class-aware admission lattice, the
// tenant-weighted scheduler decorator, SLO beats, and byte-identical
// seeded replay of the 3-tenant contention drill.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "jobs/live_executor.hpp"
#include "qos/drill.hpp"
#include "qos/enforcer.hpp"
#include "qos/hierarchical_bucket.hpp"
#include "qos/scheduler.hpp"
#include "qos/tenant.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::qos {
namespace {

TenantSpec make_tenant(const std::string& name, PriorityClass klass,
                       double reserved, double burst) {
  TenantSpec t;
  t.name = name;
  t.klass = klass;
  t.reserved_bandwidth = reserved;
  t.burst = burst;
  return t;
}

/// Unit-scale fixture: root capacity 100 tokens/s, pool horizon 0.1 s
/// (per-contributor pool cap = 10), gold 60/s with burst 30, silver
/// 20/s with burst 10, unreserved remainder 20/s with burst 10.
/// Tenant ids: 0 = default best-effort, 1 = gold, 2 = silver.
QosOptions small_options() {
  QosOptions o;
  o.enabled = true;
  o.pool_horizon = 0.1;
  o.tenants.push_back(make_tenant("gold", PriorityClass::Guaranteed, 60.0,
                                  30.0));
  o.tenants.push_back(make_tenant("silver", PriorityClass::Burst, 20.0,
                                  10.0));
  return o;
}

constexpr TenantId kGold = 1;
constexpr TenantId kSilver = 2;

// ------------------------------------------------------- knob validation

TEST(QosOptionsTest, DisabledTableNeedsNoTenants) {
  EXPECT_NO_THROW(validate_qos_options(QosOptions{}));
}

TEST(QosOptionsTest, EnabledWithoutTenantsRejected) {
  QosOptions o;
  o.enabled = true;
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
}

TEST(QosOptionsTest, DuplicateAndReservedNamesRejected) {
  QosOptions o;
  o.enabled = true;
  o.tenants.push_back(make_tenant("a", PriorityClass::BestEffort, 0.0, 0.0));
  o.tenants.push_back(make_tenant("a", PriorityClass::BestEffort, 0.0, 0.0));
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
  o.tenants.pop_back();
  EXPECT_NO_THROW(validate_qos_options(o));
  // "default" belongs to the implicit tenant 0.
  o.tenants.push_back(
      make_tenant("default", PriorityClass::BestEffort, 0.0, 0.0));
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
  o.tenants.back().name = "";
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
}

TEST(QosOptionsTest, ClassReservationContractEnforced) {
  QosOptions o;
  o.enabled = true;
  // A guarantee without tokens is a wish.
  o.tenants.push_back(make_tenant("g", PriorityClass::Guaranteed, 0.0, 0.0));
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
  // Best-effort must not hold a reservation...
  o.tenants[0] = make_tenant("b", PriorityClass::BestEffort, 10.0, 0.0);
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
  // ...nor a bandwidth-floor SLO (nothing backs it).
  o.tenants[0] = make_tenant("b", PriorityClass::BestEffort, 0.0, 0.0);
  o.tenants[0].min_bandwidth = 50.0;
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
}

TEST(QosOptionsTest, BadNumbersRejected) {
  QosOptions o = small_options();
  o.pool_horizon = 0.0;
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
  o = small_options();
  o.tenants[0].reserved_bandwidth =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
  o = small_options();
  o.tenants[0].burst = -5.0;
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
  o = small_options();
  o.tenants[1].max_queue_wait = -0.1;
  EXPECT_THROW(validate_qos_options(o), std::invalid_argument);
}

TEST(TenantRegistryTest, OvercommittedReservationsRejected) {
  QosOptions o = small_options();  // 80/s reserved
  EXPECT_NO_THROW(TenantRegistry(o, 100.0));
  EXPECT_THROW(TenantRegistry(o, 79.0), std::invalid_argument);
  EXPECT_THROW(TenantRegistry(o, 0.0), std::invalid_argument);
}

TEST(TenantRegistryTest, FindMapsLabelsAndDefaultsUnknown) {
  TenantRegistry reg(small_options(), 100.0);
  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.find("gold"), kGold);
  EXPECT_EQ(reg.find("silver"), kSilver);
  EXPECT_EQ(reg.find("unheard-of"), kDefaultTenant);
  EXPECT_EQ(reg.spec(kDefaultTenant).name, "default");
  EXPECT_EQ(reg.spec(kDefaultTenant).klass, PriorityClass::BestEffort);
  // Out-of-range ids account under the default tenant, never UB.
  EXPECT_EQ(reg.spec(999).name, "default");
}

TEST(LiveOptionsTest, QosRequiresAdmissionControl) {
  jobs::LiveExecutorOptions o;
  o.qos = small_options();
  EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  o.admission.enabled = true;
  EXPECT_NO_THROW(jobs::validate_live_options(o));
  // Tenant-table problems surface through the same gate.
  o.qos.tenants.push_back(o.qos.tenants[0]);  // duplicate name
  EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
}

// ------------------------------------- borrow/reclaim state machine

TEST(HierarchicalBucketTest, ReservedDrawComesFromOwnLeaf) {
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket htb(reg);
  const auto g = htb.acquire(kGold, 20.0, 0.0, /*require_full=*/true);
  EXPECT_TRUE(g.ok);
  EXPECT_DOUBLE_EQ(g.reserved, 20.0);
  EXPECT_DOUBLE_EQ(g.reclaimed, 0.0);
  EXPECT_DOUBLE_EQ(g.borrowed, 0.0);
  EXPECT_DOUBLE_EQ(g.shortfall, 0.0);
}

TEST(HierarchicalBucketTest, IdleLeafOverflowBecomesLendableSlack) {
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket htb(reg);
  // At t=0 the pool is just the unreserved bucket's burst (10); both
  // leaves are full but have shed nothing yet.
  EXPECT_DOUBLE_EQ(htb.pool_level(0.0), 10.0);
  // One idle second: each full leaf sheds its refill, capped at the
  // per-contributor ceiling (pool_horizon * capacity = 10).
  EXPECT_DOUBLE_EQ(htb.pool_level(1.0), 30.0);
  // A best-effort tenant (no leaf) covers 25 purely by borrowing:
  // unreserved first, then contributors in ascending tenant id.
  const auto g = htb.acquire(kDefaultTenant, 25.0, 1.0, true);
  EXPECT_TRUE(g.ok);
  EXPECT_DOUBLE_EQ(g.reserved, 0.0);
  EXPECT_DOUBLE_EQ(g.reclaimed, 0.0);
  EXPECT_DOUBLE_EQ(g.borrowed, 25.0);
  // Lender-side ledger: gold lent its full 10, silver the remaining 5.
  EXPECT_DOUBLE_EQ(htb.lent(kGold), 10.0);
  EXPECT_DOUBLE_EQ(htb.lent(kSilver), 5.0);
}

TEST(HierarchicalBucketTest, ReclaimOwnSlackBeforeBorrowing) {
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket htb(reg);
  // Gold idles for a second: its leaf stays full (30) and 10 of its
  // refill sits in the pool as its own contribution.
  const auto g = htb.acquire(kGold, 45.0, 1.0, true);
  EXPECT_TRUE(g.ok);
  EXPECT_DOUBLE_EQ(g.reserved, 30.0);   // full leaf first
  EXPECT_DOUBLE_EQ(g.reclaimed, 10.0);  // own slack pulled back...
  EXPECT_DOUBLE_EQ(g.borrowed, 5.0);    // ...before touching the pool
  // Reclaiming its own slack is not a loan.
  EXPECT_DOUBLE_EQ(htb.lent(kGold), 0.0);
}

TEST(HierarchicalBucketTest, ReclaimLatencyIsBounded) {
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket htb(reg);
  // However long a lender idles, at most pool_horizon seconds of its
  // refill is outstanding: on reactivation it holds its full burst plus
  // the capped contribution - instantly, no waiting on borrowers.
  EXPECT_DOUBLE_EQ(htb.reserve_level(kGold, 1000.0), 30.0 + 10.0);
  EXPECT_DOUBLE_EQ(htb.pool_level(1000.0), 30.0);  // capped, not 1000s
}

TEST(HierarchicalBucketTest, RequireFullFailureConsumesNothing) {
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket htb(reg);
  // Silver can see at most 10 (leaf) + 10 (unreserved) = 20 at t=0.
  const auto refused = htb.acquire(kSilver, 100.0, 0.0, true);
  EXPECT_FALSE(refused.ok);
  EXPECT_DOUBLE_EQ(refused.granted(), 0.0);
  // Everything is still there: the exact 20 is granted in full.
  const auto g = htb.acquire(kSilver, 20.0, 0.0, true);
  EXPECT_TRUE(g.ok);
  EXPECT_DOUBLE_EQ(g.reserved, 10.0);
  EXPECT_DOUBLE_EQ(g.borrowed, 10.0);
}

TEST(HierarchicalBucketTest, ShortfallForgivenWhenNotRequireFull) {
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket htb(reg);
  const auto g = htb.acquire(kGold, 1000.0, 0.0, false);
  EXPECT_TRUE(g.ok);
  EXPECT_DOUBLE_EQ(g.granted(), 40.0);  // leaf 30 + unreserved 10
  EXPECT_DOUBLE_EQ(g.shortfall, 960.0);
}

TEST(HierarchicalBucketTest, BackwardsTimeIsClamped) {
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket htb(reg);
  EXPECT_DOUBLE_EQ(htb.pool_level(1.0), 30.0);
  // An out-of-order observer cannot rewind the hierarchy.
  EXPECT_DOUBLE_EQ(htb.pool_level(0.5), 30.0);
}

TEST(HierarchicalBucketTest, ConservationFuzz) {
  // Random acquire storms across all tenants: tokens are moved, never
  // minted - everything granted is bounded by the initial bursts plus
  // what the refill rates can have produced.
  TenantRegistry reg(small_options(), 100.0);
  for (const std::uint64_t seed : {1ull, 7ull, 1337ull}) {
    HierarchicalTokenBucket htb(reg);
    Rng rng(seed);
    Seconds t = 0.0;
    for (int i = 0; i < 5000; ++i) {
      t += rng.uniform01() * 0.01;
      const auto tenant = static_cast<TenantId>(rng.index(3));
      const double n = rng.uniform01() * 50.0;
      const bool full = rng.uniform01() < 0.5;
      (void)htb.acquire(tenant, n, t, full);
      if (i % 500 == 0) {
        EXPECT_LE(htb.total_granted(), htb.accrual_bound(t) + 1e-6)
            << "seed " << seed << " iteration " << i;
      }
    }
    EXPECT_LE(htb.total_granted(), htb.accrual_bound(t) + 1e-6)
        << "seed " << seed;
    EXPECT_GT(htb.total_granted(), 0.0);
  }
}

TEST(HierarchicalBucketTest, SameSeedSameGrantSequence) {
  // The hierarchy itself is deterministic on an explicit timeline: two
  // instances driven identically decompose every grant identically.
  TenantRegistry reg(small_options(), 100.0);
  HierarchicalTokenBucket a(reg), b(reg);
  Rng rng_a(42), rng_b(42);
  auto step = [](HierarchicalTokenBucket& htb, Rng& rng, Seconds& t) {
    t += rng.uniform01() * 0.005;
    return htb.acquire(static_cast<TenantId>(rng.index(3)),
                       rng.uniform01() * 40.0, t, rng.uniform01() < 0.5);
  };
  Seconds ta = 0.0, tb = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const auto ga = step(a, rng_a, ta);
    const auto gb = step(b, rng_b, tb);
    ASSERT_EQ(ga.ok, gb.ok);
    ASSERT_DOUBLE_EQ(ga.reserved, gb.reserved);
    ASSERT_DOUBLE_EQ(ga.reclaimed, gb.reclaimed);
    ASSERT_DOUBLE_EQ(ga.borrowed, gb.borrowed);
    ASSERT_DOUBLE_EQ(ga.shortfall, gb.shortfall);
  }
}

// --------------------------------------------- the admission ledger

TEST(QosMetricsTest, QosOffLedgerIsOneDefaultRowOnSharedCells) {
  telemetry::Registry reg;
  const QosMetrics client_side(reg);
  const QosMetrics daemon_side(reg);
  ASSERT_EQ(client_side.size(), 1u);
  // Out-of-range tenant ids land on the one row.
  client_side.tenant(5).on_submitted(100);
  client_side.tenant(kDefaultTenant).on_direct_fallback(50);
  daemon_side.tenant(kDefaultTenant).on_admitted(100);
  // Both tables resolved the same (name, labels) cells.
  const telemetry::Labels row{{"tenant", "default"}};
  EXPECT_EQ(reg.counter("qos.tenant.submitted", row).value(), 2u);
  EXPECT_EQ(reg.counter("qos.tenant.submitted_bytes", row).value(), 150u);
  EXPECT_EQ(reg.counter("qos.tenant.direct_fallback", row).value(), 1u);
  EXPECT_EQ(reg.counter("qos.tenant.admitted", row).value(), 1u);
  EXPECT_EQ(daemon_side.tenant(kDefaultTenant).submitted,
            client_side.tenant(kDefaultTenant).submitted);
}

// --------------------------------------------- admission lattice

TEST(QosEnforcerTest, BelowWatermarkAdmitsEveryone) {
  TenantRegistry registry(small_options(), 100.0);
  telemetry::Registry reg;
  QosMetrics metrics(registry, reg);
  QosEnforcer enf(registry, metrics);
  EXPECT_TRUE(enf.admit(kDefaultTenant, 50, false, 0.0));
  EXPECT_TRUE(enf.admit(kSilver, 50, false, 0.0));
  EXPECT_TRUE(enf.admit(kGold, 500, false, 0.0));  // even past the tokens
}

TEST(QosEnforcerTest, SaturationShedsByClass) {
  TenantRegistry registry(small_options(), 100.0);
  telemetry::Registry reg;
  QosMetrics metrics(registry, reg);
  QosEnforcer enf(registry, metrics);
  // Best-effort is rejected outright, no matter how small.
  EXPECT_FALSE(enf.admit(kDefaultTenant, 1, true, 0.0));
  // Burst rides on tokens: leaf 10 + unreserved 10 cover the first 15,
  // then full cover fails and there is no forgiveness.
  EXPECT_TRUE(enf.admit(kSilver, 15, true, 0.0));
  EXPECT_FALSE(enf.admit(kSilver, 15, true, 0.0));
  // Guaranteed: full cover first...
  EXPECT_TRUE(enf.admit(kGold, 25, true, 0.0));
  // ...then exempt while its reservation has tokens (shortfall
  // forgiven)...
  EXPECT_TRUE(enf.admit(kGold, 50, true, 0.0));
  // ...and refused only once the reservation is truly empty.
  EXPECT_FALSE(enf.admit(kGold, 50, true, 0.0));
  // Of the 50 tokens granted above, 10 were borrowed slack.
  EXPECT_NEAR(enf.sheddable_fraction(), 0.2, 1e-9);
  // The grant decomposition landed in the per-tenant byte counters.
  EXPECT_EQ(reg.counter("qos.tenant.reserved_bytes", {{"tenant", "gold"}})
                .value(),
            30u);
  EXPECT_EQ(reg.counter("qos.tenant.borrowed_bytes", {{"tenant", "gold"}})
                .value(),
            5u);
}

TEST(QosEnforcerTest, RejectedRequestsConsumeNoTokens) {
  TenantRegistry registry(small_options(), 100.0);
  telemetry::Registry reg;
  QosMetrics metrics(registry, reg);
  QosEnforcer enf(registry, metrics);
  // Hammer refused best-effort admissions; gold's tokens must survive.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(enf.admit(kDefaultTenant, 10, true, 0.0));
    EXPECT_FALSE(enf.admit(kSilver, 1000, true, 0.0));
  }
  EXPECT_TRUE(enf.admit(kGold, 30, true, 0.0));  // full burst intact
}

// ------------------------------------------- tenant-weighted scheduler

TEST(TenantSchedulerTest, WeightedFairInterleaving) {
  TenantRegistry registry(small_options(), 100.0);
  agios::SchedulerConfig cfg;
  cfg.kind = agios::SchedulerKind::Fifo;
  auto sched = make_tenant_scheduler(registry, cfg);
  EXPECT_NE(sched->name().find("tenant-weighted"), std::string::npos);
  // 4 guaranteed + 4 best-effort requests of equal size. Weights
  // 100 : 1 => vtime advances 1 per gold dispatch, 100 per best-effort
  // dispatch: G B G G G B B B.
  for (std::uint64_t i = 0; i < 4; ++i) {
    agios::SchedRequest r;
    r.tag = i;
    r.file_id = 1;
    r.size = 100;
    r.tenant = kGold;
    sched->add(r);
  }
  for (std::uint64_t i = 4; i < 8; ++i) {
    agios::SchedRequest r;
    r.tag = i;
    r.file_id = 2;
    r.size = 100;
    r.tenant = kDefaultTenant;
    sched->add(r);
  }
  ASSERT_EQ(sched->queued(), 8u);
  std::string order;
  while (auto d = sched->pop(0.0)) {
    ASSERT_FALSE(d->parts.empty());
    order += d->parts[0].tenant == kGold ? 'G' : 'B';
  }
  EXPECT_EQ(order, "GBGGGBBB");
  EXPECT_EQ(sched->queued(), 0u);
}

TEST(TenantSchedulerTest, IdleClassCannotBankCredit) {
  TenantRegistry registry(small_options(), 100.0);
  agios::SchedulerConfig cfg;
  cfg.kind = agios::SchedulerKind::Fifo;
  auto sched = make_tenant_scheduler(registry, cfg);
  // A long gold-only phase advances the guaranteed vtime far ahead
  // (one request stays queued so the class remains active).
  for (std::uint64_t i = 0; i < 51; ++i) {
    agios::SchedRequest r;
    r.tag = i;
    r.file_id = 1;
    r.size = 1000;
    r.tenant = kGold;
    sched->add(r);
  }
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(sched->pop(0.0).has_value());
  // Best-effort arrives late: its idle vtime fast-forwards to the
  // active minimum (gold's, ~500) instead of keeping 50 dispatches of
  // banked credit at vtime 0 - so the vtime tie breaks toward the
  // higher class and gold still wins the next dispatch.
  agios::SchedRequest be;
  be.tag = 100;
  be.file_id = 2;
  be.size = 1000;
  be.tenant = kDefaultTenant;
  sched->add(be);
  auto first = sched->pop(0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->parts[0].tenant, kGold);
  // With gold drained, best-effort is served rather than starved.
  auto second = sched->pop(0.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->parts[0].tenant, kDefaultTenant);
}

// ----------------------------------------------------------- SLO beats

TEST(QosRuntimeTest, SloBeatScoresBandwidthFloor) {
  QosOptions o = small_options();
  o.tenants[0].min_bandwidth = 50.0;  // gold: 50 MB/s floor
  telemetry::Registry reg;
  QosRuntime rt(o, 100.0e6, 1, reg);
  ASSERT_EQ(rt.tenant_of("gold"), kGold);
  auto& gold = rt.metrics().tenant(kGold);
  rt.slo_beat(0.0);  // primes the baseline, can never violate
  EXPECT_EQ(gold.slo_violations->value(), 0u);
  // One second: 60 MB offered, only 20 MB delivered -> violation.
  gold.submitted_bytes->add(60u * 1000 * 1000);
  gold.admitted_bytes->add(20u * 1000 * 1000);
  rt.slo_beat(1.0);
  EXPECT_EQ(gold.slo_violations->value(), 1u);
  // Next second: floor met -> no new violation.
  gold.submitted_bytes->add(60u * 1000 * 1000);
  gold.admitted_bytes->add(55u * 1000 * 1000);
  rt.slo_beat(2.0);
  EXPECT_EQ(gold.slo_violations->value(), 1u);
  // Idle tenant (offered < floor) cannot violate its own floor.
  gold.submitted_bytes->add(1u * 1000 * 1000);
  rt.slo_beat(3.0);
  EXPECT_EQ(gold.slo_violations->value(), 1u);
}

TEST(QosRuntimeTest, SloBeatScoresQueueWaitCeiling) {
  QosOptions o = small_options();
  o.tenants[1].max_queue_wait = 0.010;  // silver: p99 <= 10 ms
  telemetry::Registry reg;
  QosRuntime rt(o, 100.0e6, 1, reg);
  auto& silver = rt.metrics().tenant(kSilver);
  rt.slo_beat(0.0);
  // 100 waits of 1 ms: p99 fine.
  for (int i = 0; i < 100; ++i) silver.queue_wait_us->observe(1000.0);
  rt.slo_beat(1.0);
  EXPECT_EQ(silver.slo_violations->value(), 0u);
  // Flood with 100 ms waits: p99 blows the ceiling.
  for (int i = 0; i < 300; ++i) silver.queue_wait_us->observe(100000.0);
  rt.slo_beat(2.0);
  EXPECT_EQ(silver.slo_violations->value(), 1u);
}

// ---------------------------------------- the 3-tenant contention drill

TEST(QosDrillTest, GoldTenantMeetsSloUnderTenfoldLoad) {
  DrillConfig cfg;  // the committed BENCH_qos configuration
  telemetry::Registry reg;
  const DrillResult r = run_contention_drill(cfg, reg);
  ASSERT_EQ(r.tenants.size(), 3u);
  // Per-tenant accounting identity, asserted from counters.
  for (const auto& t : r.tenants) {
    EXPECT_TRUE(t.accounting_ok()) << t.name;
    EXPECT_GT(t.submitted, 0u) << t.name;
  }
  EXPECT_TRUE(r.accounting_ok);
  // The headline: guaranteed delivered bandwidth >= the SLO floor while
  // best-effort offered 10x capacity, and zero violation beats.
  EXPECT_TRUE(r.gold_slo_met);
  EXPECT_GE(r.gold().delivered_mbps, cfg.gold_floor_mbps);
  EXPECT_EQ(r.gold().slo_violations, 0u);
  // The full lend -> borrow -> reclaim cycle actually ran: gold's idle
  // window lent slack, best-effort borrowed, gold drew reservation.
  EXPECT_GT(r.gold().reserved_bytes, 0u);
  EXPECT_GT(r.gold().lent_bytes, 0u);
  EXPECT_GT(r.tenants[1].borrowed_bytes + r.tenants[2].borrowed_bytes, 0u);
  // Best-effort was shed, not starved: some admitted, plenty rejected.
  EXPECT_GT(r.tenants[1].admitted + r.tenants[2].admitted, 0u);
  EXPECT_GT(r.tenants[1].rejected + r.tenants[2].rejected, 0u);
}

TEST(QosDrillTest, SameSeedIsByteIdentical) {
  DrillConfig cfg;
  cfg.duration = 0.5;
  cfg.seed = 7;
  telemetry::Registry reg_a, reg_b;
  run_contention_drill(cfg, reg_a);
  run_contention_drill(cfg, reg_b);
  const std::string dump_a = qos_counter_dump(reg_a);
  const std::string dump_b = qos_counter_dump(reg_b);
  EXPECT_FALSE(dump_a.empty());
  EXPECT_NE(dump_a.find("qos.tenant.submitted"), std::string::npos);
  EXPECT_EQ(dump_a, dump_b);
}

TEST(QosDrillTest, DifferentSeedsDiverge) {
  DrillConfig cfg;
  cfg.duration = 0.5;
  telemetry::Registry reg_a, reg_b;
  cfg.seed = 1;
  run_contention_drill(cfg, reg_a);
  cfg.seed = 2;
  run_contention_drill(cfg, reg_b);
  EXPECT_NE(qos_counter_dump(reg_a), qos_counter_dump(reg_b));
}

}  // namespace
}  // namespace iofa::qos
