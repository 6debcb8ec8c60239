// Scenario-based robustness suite: scripted FaultPlans against the live
// forwarding stack (clients, ION daemons, emulated PFS, arbiter, health
// monitor). Each scenario is a (plan, workload, invariants) triple; the
// invariants are the paper-level claims - no acknowledged write is ever
// lost, clients fail over within their mapping epoch, the arbiter
// re-solves around dead IONs, and a lost or corrupt mapping publish is
// self-healed by the next health sweep.
//
// Every scenario is seeded and reproducible: the base seed comes from
// IOFA_FAULT_SEED (default 42) and is printed via SCOPED_TRACE on any
// failure, so a CI flake replays locally with one env var.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "fault/clock.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fwd/client.hpp"
#include "fwd/health.hpp"
#include "fwd/service.hpp"
#include "platform/profile.hpp"
#include "rpc/options.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {
namespace {

constexpr std::uint64_t kChunk = 512 * KiB;
constexpr std::uint64_t kBlock = 4096;
constexpr core::JobId kJob = 7;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("IOFA_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

#define IOFA_TRACE_SEED(seed) \
  SCOPED_TRACE("reproduce with IOFA_FAULT_SEED=" + std::to_string(seed))

std::vector<std::byte> pattern_data(std::size_t n, std::uint64_t seed) {
  iofa::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

/// Block i lives in its own 512 KiB GekkoFS chunk, so consecutive
/// blocks hash to different daemons and a multi-ION mapping actually
/// spreads the traffic.
std::uint64_t block_offset(int i) {
  return static_cast<std::uint64_t>(i) * kChunk;
}

fault::BackoffPolicy fast_backoff() {
  fault::BackoffPolicy b;
  b.base = 100e-6;
  b.cap = 500e-6;
  return b;
}

/// One cluster under test: a private registry and a manual fault clock
/// wired through the injector into every component, with device
/// parameters fast enough that scenarios finish in milliseconds.
/// `transport` defaults to kAuto so the whole file runs unmodified over
/// whatever IOFA_TRANSPORT the CI matrix exports; the rpc message
/// drills pin a framed transport explicitly (rpc.* sites see no frames
/// in-proc).
struct Cluster {
  Cluster(fault::FaultPlan plan, int ions, int workers_per_ion = 1,
          rpc::TransportKind transport = rpc::TransportKind::kAuto)
      : injector(std::move(plan), &clock, &reg) {
    ServiceConfig cfg;
    cfg.transport = transport;
    cfg.rpc_seed = injector.plan().seed;
    // Fast enough that an after-triggered frame drop costs one short
    // resend window, not the production quarter second.
    cfg.rpc.ack_timeout = 0.1;
    cfg.rpc.retry_backoff = fast_backoff();
    cfg.ion_count = ions;
    cfg.pfs.write_bandwidth = 4.0e9;
    cfg.pfs.read_bandwidth = 4.0e9;
    cfg.pfs.op_overhead = 4 * KiB;
    cfg.pfs.contention_coeff = 0.0;
    cfg.pfs.registry = &reg;
    cfg.ion.ingest_bandwidth = 4.0e9;
    cfg.ion.op_overhead = 4 * KiB;
    cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
    cfg.ion.registry = &reg;
    cfg.ion.flush_backoff = fast_backoff();
    cfg.ion.workers = workers_per_ion;
    cfg.injector = &injector;
    service.emplace(cfg);
  }

  ClientConfig client_config() {
    ClientConfig cc;
    cc.job = kJob;
    cc.app_label = "drill";
    cc.poll_period = 0.0;  // pick up republished mappings on every op
    cc.backoff = fast_backoff();
    cc.retry_seed = injector.plan().seed;
    cc.registry = &reg;
    return cc;
  }

  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultInjector injector;
  std::optional<ForwardingService> service;
};

core::Mapping mapping_to(std::vector<int> ions, std::uint64_t epoch,
                         int pool) {
  core::Mapping m;
  m.epoch = epoch;
  m.pool = pool;
  m.jobs[kJob] = core::Mapping::Entry{"drill", std::move(ions), false};
  return m;
}

/// Strictly increasing utility so MCKP gives one running job every ION
/// it can get - scenarios that kill an ION need a multi-ION mapping.
platform::BandwidthCurve drill_curve() {
  return platform::BandwidthCurve(
      {{0, 1.0}, {1, 100.0}, {2, 190.0}, {3, 270.0}});
}

core::Arbiter make_arbiter(Cluster& c, int pool) {
  return core::Arbiter(
      std::make_shared<core::MckpPolicy>(),
      core::ArbiterOptions{pool, std::nullopt, true, &c.reg});
}

double counter_sum(telemetry::Registry& reg, const std::string& name) {
  double total = 0.0;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// The acceptance-criteria counter dump: every fault/failover counter,
/// sorted by (name, labels) by the registry, values included. Two runs
/// with the same plan + seed must produce byte-identical dumps.
std::string fault_counter_dump(telemetry::Registry& reg) {
  static constexpr const char* kAllow[] = {
      "fault.injected",          "fwd.retries",
      "fwd.failovers",           "qos.tenant.direct_fallback",
      "qos.tenant.failed",       "fwd.ion.flush_abandoned",
      "arbiter.resolves_on_failure"};
  std::ostringstream out;
  for (const auto& s : reg.snapshot().samples) {
    bool keep = false;
    for (const char* prefix : kAllow) {
      keep = keep || s.name.rfind(prefix, 0) == 0;
    }
    if (!keep) continue;
    out << s.name;
    for (const auto& [k, v] : s.labels) out << ' ' << k << '=' << v;
    out << " = " << s.value << '\n';
  }
  return out.str();
}

void write_blocks(Client& client, const std::string& path, int first,
                  int last, std::uint64_t seed) {
  for (int i = first; i < last; ++i) {
    const auto data = pattern_data(kBlock, seed + static_cast<unsigned>(i));
    EXPECT_EQ(client.pwrite(0, path, block_offset(i), kBlock, data), kBlock)
        << "block " << i;
  }
}

void expect_blocks_on_pfs(EmulatedPfs& pfs, const std::string& path,
                          int blocks, std::uint64_t seed) {
  for (int i = 0; i < blocks; ++i) {
    std::vector<std::byte> out(kBlock);
    ASSERT_EQ(pfs.read(path, block_offset(i), kBlock, out), kBlock)
        << "block " << i << " missing from the PFS";
    EXPECT_EQ(out, pattern_data(kBlock, seed + static_cast<unsigned>(i)))
        << "block " << i << " corrupted";
  }
}

bool wait_until(const std::function<bool()>& pred, Seconds timeout = 5.0) {
  const Seconds t0 = monotonic_seconds();
  while (!pred()) {
    if (monotonic_seconds() - t0 > timeout) return false;
    sleep_for_seconds(100e-6);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Scenario 1: control run. An armed injector with an empty plan must be
// inert - every byte moves, no fault counter ticks.
TEST(FaultScenarios, BaselineNoFaultsMovesEveryByte) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  Cluster c(std::move(plan), 2);
  c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

  Client client(c.client_config(), *c.service);
  write_blocks(client, "/base", 0, 8, seed);
  client.fsync("/base");
  c.service->drain();

  expect_blocks_on_pfs(c.service->pfs(), "/base", 8, seed);
  EXPECT_EQ(c.injector.injected_total(), 0u);
  EXPECT_EQ(counter_sum(c.reg, "fwd.failovers"), 0.0);
  EXPECT_EQ(counter_sum(c.reg, "fwd.retries"), 0.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.direct_fallback"), 0.0);
}

// ---------------------------------------------------------------------------
// Scenario 2: a count-triggered crash ("after 1 crash ion.0") takes the
// daemon down at its first admission; the client fails over to the
// surviving ION of its epoch and every block still lands.
TEST(FaultScenarios, CountTriggeredCrashFailsOverToSurvivingIon) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.crash_ion_after(0, 1);
  Cluster c(std::move(plan), 2);
  c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

  Client client(c.client_config(), *c.service);
  write_blocks(client, "/failover", 0, 16, seed);
  c.service->drain();

  EXPECT_FALSE(c.service->daemon(0).alive());
  EXPECT_TRUE(c.service->daemon(1).alive());
  EXPECT_EQ(c.injector.injected(fault::ion_site(0)), 1u);
  EXPECT_GE(counter_sum(c.reg, "fwd.failovers"), 1.0);
  expect_blocks_on_pfs(c.service->pfs(), "/failover", 16, seed);
}

// ---------------------------------------------------------------------------
// Scenario 3: a time-triggered crash window on the only ION. Inside the
// window the client exhausts its submission attempts and rescues the
// write with direct PFS access; after the scheduled restart the daemon
// serves forwarded traffic again.
TEST(FaultScenarios, TimeCrashWindowFallsBackDirectThenRejoins) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.crash_ion(0, 1.0).restart_ion(0, 2.0);
  Cluster c(std::move(plan), 1);
  c.service->apply_mapping(mapping_to({0}, 1, 1));

  ClientConfig cc = c.client_config();
  cc.max_attempts = 2;
  Client client(cc, *c.service);

  // t=0: before the window, traffic forwards normally.
  write_blocks(client, "/window", 0, 1, seed);
  EXPECT_GE(client.forwarded_ops(), 1u);

  c.clock.set(1.5);  // inside the crash window
  EXPECT_FALSE(c.injector.ion_alive(0));
  EXPECT_FALSE(c.service->daemon(0).alive());
  write_blocks(client, "/window", 1, 2, seed);
  EXPECT_GE(counter_sum(c.reg, "qos.tenant.direct_fallback"), 1.0);

  c.clock.set(2.5);  // past the restart
  EXPECT_TRUE(c.injector.ion_alive(0));
  EXPECT_TRUE(c.service->daemon(0).alive());
  const auto forwarded_before = client.forwarded_ops();
  write_blocks(client, "/window", 2, 3, seed);
  EXPECT_GT(client.forwarded_ops(), forwarded_before);

  client.fsync("/window");
  c.service->drain();
  expect_blocks_on_pfs(c.service->pfs(), "/window", 3, seed);
}

// ---------------------------------------------------------------------------
// Scenario 4: the health monitor turns a dead heartbeat into an arbiter
// failure re-solve - the republished mapping excludes the dead ION and
// the arbiter.resolves_on_failure counter ticks.
TEST(FaultScenarios, CrashReSolvesArbitrationExcludingDeadIon) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  Cluster c(std::move(plan), 3);
  core::Arbiter arbiter = make_arbiter(c, 3);
  HealthMonitor hm(*c.service, arbiter);

  arbiter.job_started(kJob, core::AppEntry{"drill", 8, 16, drill_curve()});
  c.service->apply_mapping(arbiter.mapping());
  const auto epoch_before = c.service->mapping_store().epoch();
  EXPECT_FALSE(hm.poll_once());  // steady state: nothing to republish

  c.service->daemon(1).crash();
  EXPECT_TRUE(hm.poll_once());
  EXPECT_EQ(hm.failures_seen(), 1u);
  EXPECT_EQ(arbiter.failed_ions().count(1), 1u);
  EXPECT_GT(c.service->mapping_store().epoch(), epoch_before);
  EXPECT_EQ(counter_sum(c.reg, "arbiter.resolves_on_failure"), 1.0);

  const auto entry = c.service->mapping_store().snapshot(kJob);
  ASSERT_TRUE(entry.found);
  ASSERT_FALSE(entry.ions.empty());
  for (int ion : entry.ions) EXPECT_NE(ion, 1);
}

// ---------------------------------------------------------------------------
// Scenario 5: recovery is an edge too - a restarted ION rejoins the
// arbitration pool on the next sweep and the failed set empties.
TEST(FaultScenarios, RestartedIonRejoinsArbitration) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  Cluster c(std::move(plan), 3);
  core::Arbiter arbiter = make_arbiter(c, 3);
  HealthMonitor hm(*c.service, arbiter);

  arbiter.job_started(kJob, core::AppEntry{"drill", 8, 16, drill_curve()});
  c.service->apply_mapping(arbiter.mapping());
  hm.poll_once();

  c.service->daemon(2).crash();
  EXPECT_TRUE(hm.poll_once());
  const auto epoch_dead = c.service->mapping_store().epoch();

  c.service->daemon(2).restart();
  EXPECT_TRUE(hm.poll_once());
  EXPECT_EQ(hm.failures_seen(), 1u);
  EXPECT_EQ(hm.recoveries_seen(), 1u);
  EXPECT_TRUE(arbiter.failed_ions().empty());
  EXPECT_GT(c.service->mapping_store().epoch(), epoch_dead);
  // Recovery re-solves but is not a *failure* re-solve.
  EXPECT_EQ(counter_sum(c.reg, "arbiter.resolves_on_failure"), 1.0);
}

// ---------------------------------------------------------------------------
// Scenario 6: a failed PFS dispatch must not lose staged data - the
// flusher retries with backoff until the write lands.
TEST(FaultScenarios, PfsWriteErrorRetriedUntilDurable) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.error_after(fault::kPfsWriteSite, 1);
  Cluster c(std::move(plan), 1);
  c.service->apply_mapping(mapping_to({0}, 1, 1));

  Client client(c.client_config(), *c.service);
  write_blocks(client, "/durable", 0, 4, seed);
  client.fsync("/durable");
  c.service->drain();

  EXPECT_EQ(c.injector.injected(fault::kPfsWriteSite), 1u);
  EXPECT_EQ(counter_sum(c.reg, "fwd.retries"), 1.0);
  EXPECT_EQ(counter_sum(c.reg, "fwd.ion.flush_abandoned"), 0.0);
  expect_blocks_on_pfs(c.service->pfs(), "/durable", 4, seed);
}

// ---------------------------------------------------------------------------
// Scenario 7: a stall window holds a dispatch for its remaining length
// but never fails it.
TEST(FaultScenarios, PfsReadStallDelaysButCompletes) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.stall(fault::kPfsReadSite, 0.0, 0.05);
  Cluster c(std::move(plan), 1);

  const auto data = pattern_data(kBlock, seed);
  ASSERT_TRUE(c.service->pfs().write("/stall", 0, kBlock, data));

  c.clock.set(0.02);  // 0.03 s of the stall window remains
  std::vector<std::byte> out(kBlock);
  const Seconds t0 = monotonic_seconds();
  ASSERT_EQ(c.service->pfs().read("/stall", 0, kBlock, out), kBlock);
  EXPECT_GE(monotonic_seconds() - t0, 0.02);
  EXPECT_EQ(out, data);
  EXPECT_EQ(c.injector.injected(fault::kPfsReadSite), 1u);

  c.clock.set(1.0);  // past the window: no further stalls
  ASSERT_EQ(c.service->pfs().read("/stall", 0, kBlock, out), kBlock);
  EXPECT_EQ(c.injector.injected(fault::kPfsReadSite), 1u);
}

// ---------------------------------------------------------------------------
// Scenario 8: a dropped mapping publish leaves clients on the old epoch;
// the health monitor notices the store lagging the arbiter and
// republishes.
TEST(FaultScenarios, DroppedMappingPublishSelfHeals) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.drop_mapping(0.0);
  Cluster c(std::move(plan), 2);
  core::Arbiter arbiter = make_arbiter(c, 2);
  HealthMonitor hm(*c.service, arbiter);

  arbiter.job_started(kJob, core::AppEntry{"drill", 8, 16, drill_curve()});
  c.service->apply_mapping(arbiter.mapping());  // consumed by the drop
  EXPECT_EQ(c.service->mapping_store().epoch(), 0u);
  EXPECT_FALSE(c.service->mapping_store().snapshot(kJob).found);
  EXPECT_EQ(c.injector.injected(fault::kMappingPublishSite), 1u);

  EXPECT_TRUE(hm.poll_once());  // epoch lag detected -> republish
  EXPECT_EQ(c.service->mapping_store().epoch(), arbiter.mapping().epoch);
  EXPECT_TRUE(c.service->mapping_store().snapshot(kJob).found);
}

// ---------------------------------------------------------------------------
// Scenario 9: a corrupted publish is rejected by Mapping::parse (a torn
// mapping file); the store keeps the previous epoch until the health
// sweep republishes the real one.
TEST(FaultScenarios, CorruptMappingPublishRejectedAndHealed) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.corrupt_mapping(0.5);
  Cluster c(std::move(plan), 2);
  core::Arbiter arbiter = make_arbiter(c, 2);
  HealthMonitor hm(*c.service, arbiter);

  arbiter.job_started(kJob, core::AppEntry{"drill", 8, 16, drill_curve()});
  c.service->apply_mapping(arbiter.mapping());  // t=0: clean publish
  ASSERT_EQ(c.service->mapping_store().epoch(), arbiter.mapping().epoch);
  const auto good = c.service->mapping_store().snapshot(kJob);
  ASSERT_TRUE(good.found);

  c.clock.set(0.6);  // the corrupt event is now live
  arbiter.job_started(kJob + 1,
                      core::AppEntry{"late", 4, 8, drill_curve()});
  const auto epoch_wanted = arbiter.mapping().epoch;
  c.service->apply_mapping(arbiter.mapping());  // mangled -> rejected
  EXPECT_LT(c.service->mapping_store().epoch(), epoch_wanted);
  EXPECT_FALSE(c.service->mapping_store().snapshot(kJob + 1).found);
  EXPECT_EQ(c.service->mapping_store().snapshot(kJob).ions, good.ions);
  EXPECT_EQ(c.injector.injected(fault::kMappingPublishSite), 1u);

  EXPECT_TRUE(hm.poll_once());
  EXPECT_EQ(c.service->mapping_store().epoch(), epoch_wanted);
  EXPECT_TRUE(c.service->mapping_store().snapshot(kJob + 1).found);
}

// ---------------------------------------------------------------------------
// Scenario 10: request-level errors (a dropped RPC, not a dead node)
// fail over without taking the daemon down.
TEST(FaultScenarios, RequestErrorFailsOverWithoutKillingDaemon) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.error_after(fault::request_site(0), 1)
      .error_after(fault::request_site(1), 1);
  Cluster c(std::move(plan), 2);
  c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

  Client client(c.client_config(), *c.service);
  write_blocks(client, "/rpc", 0, 8, seed);
  client.fsync("/rpc");
  c.service->drain();

  EXPECT_TRUE(c.service->daemon(0).alive());
  EXPECT_TRUE(c.service->daemon(1).alive());
  EXPECT_GE(c.injector.injected(fault::request_site(0)) +
                c.injector.injected(fault::request_site(1)),
            1u);
  EXPECT_GE(counter_sum(c.reg, "qos.tenant.failed"), 1.0);
  EXPECT_GE(counter_sum(c.reg, "fwd.retries"), 1.0);
  EXPECT_GE(counter_sum(c.reg, "fwd.failovers"), 1.0);
  expect_blocks_on_pfs(c.service->pfs(), "/rpc", 8, seed);
}

// ---------------------------------------------------------------------------
// Scenario 11: a stalled ION makes the client's per-request timeout
// fire; the abandoned request is retried and finally rescued with a
// direct PFS write. Positional writes are idempotent, so the late
// completion of the abandoned copy is harmless.
TEST(FaultScenarios, RequestTimeoutAbandonsAndRescuesDirect) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.stall(fault::ion_site(0), 0.0, 0.2);
  Cluster c(std::move(plan), 1);
  c.clock.set(0.1);  // park mid-window: every admission check stalls
  c.service->apply_mapping(mapping_to({0}, 1, 1));

  ClientConfig cc = c.client_config();
  cc.request_timeout = 0.02;
  cc.max_attempts = 2;
  Client client(cc, *c.service);

  write_blocks(client, "/timeout", 0, 1, seed);
  // The stalled admission is what kept the request from completing.
  ASSERT_TRUE(wait_until(
      [&] { return c.injector.checks(fault::ion_site(0)) >= 1; }));
  EXPECT_GE(c.injector.injected(fault::ion_site(0)), 1u);
  c.clock.set(1.0);  // release the window so drain() is quick

  EXPECT_GE(counter_sum(c.reg, "fwd.retries"), 1.0);
  EXPECT_GE(counter_sum(c.reg, "qos.tenant.direct_fallback"), 1.0);
  EXPECT_TRUE(c.service->daemon(0).alive());

  c.service->drain();
  expect_blocks_on_pfs(c.service->pfs(), "/timeout", 1, seed);
}

// ---------------------------------------------------------------------------
// Scenario 12 (table-driven): determinism. The same (plan, seed,
// workload) must produce a byte-identical fault-counter dump on every
// run - the property that makes a CI failure replayable from its seed.
TEST(FaultScenarios, SameSeedProducesByteIdenticalCounterDumps) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);

  // Per-site RNG streams are indexed by the site's check count, so the
  // TOTAL injections at a site are deterministic regardless of thread
  // interleaving - but when two threads share a site (both flushers hit
  // pfs.write), which caller absorbs each failed draw races. Plans that
  // fault pfs.write therefore run on a single ION (one flusher); the
  // per-daemon request sites are single-threaded by construction.
  struct Case {
    const char* name;
    const char* plan_text;
    int ions;
    int blocks;
    bool injection_guaranteed;  ///< count-triggered event must fire
  };
  const Case kCases[] = {
      {"flaky-pfs", "prob 0.2 error pfs.write\n", 1, 24, false},
      {"flaky-requests",
       "prob 0.15 error ion.0.request\nprob 0.1 error ion.1.request\n", 2, 24,
       false},
      {"mid-run-crash", "after 5 crash ion.1\nafter 2 error ion.0.request\n",
       2, 16, false},
      {"deterministic-flush-error", "after 1 error pfs.write\n", 1, 8, true},
  };

  auto run_once = [&](const Case& tc) {
    std::string error;
    auto plan = fault::FaultPlan::parse(tc.plan_text, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    plan->seed = seed;
    Cluster c(std::move(*plan), tc.ions);
    std::vector<int> ions;
    for (int i = 0; i < tc.ions; ++i) ions.push_back(i);
    c.service->apply_mapping(mapping_to(ions, 1, tc.ions));
    ClientConfig cc = c.client_config();
    // Keep direct-PFS rescues (a second thread checking pfs.write) out
    // of the run: with two IONs in rotation a request is practically
    // never refused eight times in a row.
    cc.max_attempts = 8;
    Client client(cc, *c.service);
    write_blocks(client, "/det", 0, tc.blocks, seed);
    c.service->drain();
    return std::make_pair(fault_counter_dump(c.reg),
                          c.injector.injected_total());
  };

  for (const auto& tc : kCases) {
    SCOPED_TRACE(tc.name);
    const auto first = run_once(tc);
    const auto second = run_once(tc);
    EXPECT_FALSE(first.first.empty());
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
    if (tc.injection_guaranteed) {
      EXPECT_GE(first.second, 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario 13 (headline): kill one of three IONs mid-run. Every
// acknowledged write must survive - staged data outlives the daemon
// process, the client fails over within its epoch, and the health sweep
// converges the mapping onto the survivors.
TEST(FaultScenarios, KillingOneOfThreeIonsMidRunLosesNoAcknowledgedData) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;  // chaos is manual here: crash() mid-workload
  Cluster c(std::move(plan), 3);
  core::Arbiter arbiter = make_arbiter(c, 3);
  HealthMonitor hm(*c.service, arbiter);

  arbiter.job_started(kJob, core::AppEntry{"drill", 8, 16, drill_curve()});
  c.service->apply_mapping(arbiter.mapping());
  hm.poll_once();
  const auto entry = c.service->mapping_store().snapshot(kJob);
  ASSERT_TRUE(entry.found);
  ASSERT_GE(entry.ions.size(), 2u) << "need a multi-ION mapping to kill";

  Client client(c.client_config(), *c.service);
  write_blocks(client, "/survive", 0, 8, seed);

  const int victim = entry.ions.front();
  c.service->daemon(victim).crash();
  // Blocks written before the health sweep ride the failover path.
  write_blocks(client, "/survive", 8, 16, seed);
  EXPECT_TRUE(hm.poll_once());
  // Blocks written after it follow the republished mapping.
  write_blocks(client, "/survive", 16, 24, seed);

  client.fsync("/survive");
  c.service->drain();

  EXPECT_EQ(hm.failures_seen(), 1u);
  EXPECT_EQ(arbiter.failed_ions().count(victim), 1u);
  EXPECT_EQ(counter_sum(c.reg, "arbiter.resolves_on_failure"), 1.0);
  EXPECT_GE(counter_sum(c.reg, "fwd.failovers"), 1.0);
  const auto healed = c.service->mapping_store().snapshot(kJob);
  ASSERT_TRUE(healed.found);
  ASSERT_FALSE(healed.ions.empty());
  for (int ion : healed.ions) EXPECT_NE(ion, victim);
  // The paper-level claim: nothing acknowledged was lost.
  expect_blocks_on_pfs(c.service->pfs(), "/survive", 24, seed);
}

// ---------------------------------------------------------------------------
// Scenario 14: the sharded dispatch pipeline (workers_per_ion = 4)
// under a count-triggered crash plus request-level errors. Shard
// streams match events written against the generic ion.<N>.request
// site; the client fails over exactly as with the serial daemon, and
// every acknowledged byte still lands on the PFS.
TEST(FaultScenarios, ShardedPipelineCrashAndRequestErrorsLoseNoData) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.crash_ion_after(0, 6).error_after(fault::request_site(1), 3);
  Cluster c(std::move(plan), 2, /*workers_per_ion=*/4);
  EXPECT_EQ(c.service->daemon(0).workers(), 4);
  c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

  Client client(c.client_config(), *c.service);
  write_blocks(client, "/shards", 0, 24, seed);
  client.fsync("/shards");
  c.service->drain();

  EXPECT_FALSE(c.service->daemon(0).alive());
  EXPECT_TRUE(c.service->daemon(1).alive());
  EXPECT_GE(c.injector.injected(fault::ion_site(0)), 1u);
  EXPECT_GE(counter_sum(c.reg, "fwd.failovers"), 1.0);
  expect_blocks_on_pfs(c.service->pfs(), "/shards", 24, seed);
}

// ---------------------------------------------------------------------------
// Scenario 15 (PR 10): duplicate delivery is idempotent. Count-triggered
// dup events copy request frames on the wire; the server's dedup window
// must absorb every copy (rpc.dedup_hits) without the daemon seeing the
// request twice - the ingested byte count proves no write was applied
// twice. Two same-seed runs must agree on every involved counter.
TEST(FaultScenarios, DuplicatedRequestFramesAreAppliedExactlyOnce) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  constexpr int kBlocks = 24;

  auto run_once = [&] {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.dup_msg(fault::rpc_req_site(0), 2)
        .dup_msg(fault::rpc_req_site(0), 4)
        .dup_msg(fault::rpc_req_site(1), 3);
    // Pinned to the TCP transport: dup is a frame-layer fault, and the
    // in-proc wiring has no frames to duplicate.
    Cluster c(std::move(plan), 2, /*workers_per_ion=*/1,
              rpc::TransportKind::kTcp);
    c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

    Client client(c.client_config(), *c.service);
    write_blocks(client, "/dup", 0, kBlocks, seed);
    client.fsync("/dup");
    c.service->drain();

    expect_blocks_on_pfs(c.service->pfs(), "/dup", kBlocks, seed);
    std::ostringstream dump;
    for (const char* name :
         {"fault.injected", "rpc.dedup_hits", "fwd.ion.bytes_in",
          "fwd.ion.requests", "fwd.retries"}) {
      dump << name << " = " << counter_sum(c.reg, name) << '\n';
    }
    return std::make_pair(dump.str(),
                          counter_sum(c.reg, "rpc.dedup_hits"));
  };

  const auto first = run_once();
  // All three one-shot dups fired and were absorbed...
  EXPECT_EQ(first.second, 3.0);
  // ...and the dump already proved bytes_in == kBlocks * kBlock via the
  // PFS check; make the no-double-apply claim explicit too.
  EXPECT_NE(first.first.find("fwd.ion.bytes_in = " + std::to_string(
                                 kBlocks * kBlock)),
            std::string::npos)
      << first.first;
  // Same seed, same counters, byte for byte.
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
}

// ---------------------------------------------------------------------------
// Scenario 16 (PR 10 acceptance): frame drops + frame dups + a daemon
// crash/restart window, all in one seeded plan over a framed transport.
// No acknowledged write may be lost, and the overload accounting
// identity (overload.hpp) must still balance: every submission ends in
// exactly one bucket even when its frames were dropped, duplicated, or
// answered by a crashed daemon.
TEST(FaultScenarios, RpcChaosWithCrashRestartLosesNoAcknowledgedWrite) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.crash_ion(1, 1.0);
  plan.restart_ion(1, 2.0);
  // Server->client frames carry only answers (no ack per request), so
  // rsp ordinal k is the k-th answer on that link.
  plan.drop_msg(fault::rpc_req_site(0), 3)  // lost request: resend
      .drop_msg(fault::rpc_rsp_site(0), 1)  // lost response: resend, replay
      .dup_msg(fault::rpc_req_site(1), 2)   // dup into a live daemon
      .dup_msg(fault::rpc_req_site(0), 6)
      .drop_msg(fault::rpc_rsp_site(1), 2);
  Cluster c(std::move(plan), 2, /*workers_per_ion=*/1,
            rpc::TransportKind::kTcp);
  c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

  ClientConfig cc = c.client_config();
  // A dropped SubmitResponse is recovered by the waiter's resend, which
  // the server's dedup cache answers; the request timeout bounds the
  // wait on a request the ION holds.
  cc.request_timeout = 0.5;
  cc.max_attempts = 8;
  Client client(cc, *c.service);
  write_blocks(client, "/chaos", 0, 8, seed);
  c.clock.set(1.0);  // ion 1 down: kRejected answers drive failover to ion 0
  write_blocks(client, "/chaos", 8, 16, seed);
  c.clock.set(2.0);  // ion 1 back
  write_blocks(client, "/chaos", 16, 24, seed);
  client.fsync("/chaos");
  c.service->drain();

  // Nothing acknowledged was lost, despite drops, dups and the outage.
  expect_blocks_on_pfs(c.service->pfs(), "/chaos", 24, seed);
  // The frame faults actually happened (dedup absorbed resends/dups).
  EXPECT_GE(c.injector.injected(fault::rpc_req_site(0)), 1u);
  EXPECT_GE(counter_sum(c.reg, "rpc.dedup_hits"), 1.0);
  EXPECT_GE(counter_sum(c.reg, "fwd.failovers"), 1.0);
  // The accounting identity holds: submitted == admitted + rejected +
  // expired + direct_fallback + failed.
  const double submitted = counter_sum(c.reg, "qos.tenant.submitted");
  const double accounted = counter_sum(c.reg, "qos.tenant.admitted") +
                           counter_sum(c.reg, "qos.tenant.rejected") +
                           counter_sum(c.reg, "qos.tenant.expired") +
                           counter_sum(c.reg, "qos.tenant.direct_fallback") +
                           counter_sum(c.reg, "qos.tenant.failed");
  EXPECT_GT(submitted, 0.0);
  EXPECT_EQ(submitted, accounted);
}

}  // namespace
}  // namespace iofa::fwd
