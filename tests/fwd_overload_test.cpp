// Overload-control suite: circuit breaker state machine, saturation
// scoring, daemon admission control, deadline propagation, graceful
// degradation to the rate-limited direct-PFS path, health debounce and
// the overloaded-but-alive -> arbiter load hint channel.
//
// The paper-level invariant asserted throughout is the admission
// ledger's identity (qos/enforcer.hpp): every client submission attempt
// ends in exactly one bucket,
//
//   qos.tenant.submitted == qos.tenant.admitted
//                         + qos.tenant.rejected
//                         + qos.tenant.expired
//                         + qos.tenant.direct_fallback
//                         + qos.tenant.failed
//
// and same-seed runs produce byte-identical overload counter dumps.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/slab_pool.hpp"
#include "common/units.hpp"
#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "fault/backoff.hpp"
#include "fault/clock.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fwd/client.hpp"
#include "fwd/daemon.hpp"
#include "fwd/health.hpp"
#include "fwd/overload.hpp"
#include "fwd/pfs_backend.hpp"
#include "fwd/service.hpp"
#include "fwd/wait_slot.hpp"
#include "gkfs/chunk.hpp"
#include "jobs/live_executor.hpp"
#include "platform/profile.hpp"
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

/// Block i lives in its own 512 KiB chunk so a multi-ION mapping
/// actually spreads the traffic.
std::uint64_t block_offset(int i) {
  return static_cast<std::uint64_t>(i) * kChunk;
}

fault::BackoffPolicy fast_backoff() {
  fault::BackoffPolicy b;
  b.base = 100e-6;
  b.cap = 500e-6;
  return b;
}

double counter_sum(telemetry::Registry& reg, const std::string& name) {
  double total = 0.0;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// The acceptance-criteria identity: every submission attempt lands in
/// exactly one bucket.
void expect_overload_identity(telemetry::Registry& reg) {
  const double submitted = counter_sum(reg, "qos.tenant.submitted");
  const double accounted = counter_sum(reg, "qos.tenant.admitted") +
                           counter_sum(reg, "qos.tenant.rejected") +
                           counter_sum(reg, "qos.tenant.expired") +
                           counter_sum(reg, "qos.tenant.direct_fallback") +
                           counter_sum(reg, "qos.tenant.failed");
  EXPECT_DOUBLE_EQ(submitted, accounted)
      << "submitted=" << submitted << " accounted=" << accounted;
}

/// Every overload counter, sorted by (name, labels) by the registry.
/// Two runs with the same plan + seed must produce byte-identical dumps.
std::string overload_counter_dump(telemetry::Registry& reg) {
  static constexpr const char* kAllow[] = {
      "fwd.overload.",       "fault.injected",
      "qos.tenant.submitted", "qos.tenant.admitted",
      "qos.tenant.rejected", "qos.tenant.expired",
      "qos.tenant.direct_fallback", "qos.tenant.failed"};
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

/// One cluster under test (fault_scenarios_test.cpp idiom) with a hook
/// to tweak the ServiceConfig before the daemons start.
struct Cluster {
  Cluster(fault::FaultPlan plan, int ions,
          const std::function<void(ServiceConfig&)>& tweak = {})
      : injector(std::move(plan), &clock, &reg) {
    ServiceConfig cfg;
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
    cfg.injector = &injector;
    if (tweak) tweak(cfg);
    service.emplace(cfg);
  }

  ClientConfig client_config() {
    ClientConfig cc;
    cc.job = kJob;
    cc.app_label = "ovl";
    cc.poll_period = 0.0;
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
  m.jobs[kJob] = core::Mapping::Entry{"ovl", std::move(ions), false};
  return m;
}

platform::BandwidthCurve drill_curve() {
  return platform::BandwidthCurve(
      {{0, 1.0}, {1, 100.0}, {2, 190.0}, {3, 270.0}});
}

core::Arbiter make_arbiter(Cluster& c, int pool) {
  return core::Arbiter(
      std::make_shared<core::MckpPolicy>(),
      core::ArbiterOptions{pool, std::nullopt, true, &c.reg});
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

PfsParams fast_pfs(telemetry::Registry* reg) {
  PfsParams p;
  p.write_bandwidth = 4.0e9;
  p.read_bandwidth = 4.0e9;
  p.op_overhead = 4 * KiB;
  p.contention_coeff = 0.0;
  p.registry = reg;
  return p;
}

IonParams fast_ion(telemetry::Registry* reg) {
  IonParams p;
  p.ingest_bandwidth = 4.0e9;
  p.op_overhead = 4 * KiB;
  p.scheduler.kind = agios::SchedulerKind::Fifo;
  p.registry = reg;
  return p;
}

FwdRequest write_req(const std::string& path, std::uint64_t offset,
                     std::vector<std::byte> data) {
  FwdRequest req;
  req.op = FwdOp::Write;
  req.path = path;
  req.file_id = gkfs::hash_path(path);
  req.offset = offset;
  req.size = data.size();
  req.payload = iofa::Payload::wrap(
      std::make_shared<std::vector<std::byte>>(std::move(data)));
  return req;
}

FwdRequest fsync_req(const std::string& path) {
  FwdRequest req;
  req.op = FwdOp::Fsync;
  req.path = path;
  req.file_id = gkfs::hash_path(path);
  return req;
}

// --------------------------------------------------------------------
// Circuit breaker state machine (time passed in by hand: deterministic).

BreakerOptions breaker_opts() {
  BreakerOptions b;
  b.enabled = true;
  b.failure_threshold = 3;
  b.open_base = 10.0e-3;
  b.open_cap = 200.0e-3;
  return b;
}

TEST(CircuitBreaker, StaysClosedBelowThresholdAndSuccessResets) {
  CircuitBreaker b(breaker_opts(), 1);
  b.on_failure(0.0);
  b.on_failure(0.0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  b.on_success(0.0);  // consecutive counter resets
  b.on_failure(0.0);
  b.on_failure(0.0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow(0.0));
  EXPECT_EQ(b.trips(), 0u);
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresWithSeededWindow) {
  const std::uint64_t seed = 99;
  CircuitBreaker b(breaker_opts(), seed);
  const Seconds t0 = 1.0;
  for (int i = 0; i < 3; ++i) b.on_failure(t0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_FALSE(b.allow(t0));

  // The open window is EXACTLY the seeded backoff draw - byte-identical
  // fault-seed replay depends on it.
  const fault::BackoffPolicy window{10.0e-3, 200.0e-3, 2.0};
  const Seconds expected = t0 + fault::backoff_delay(window, 1, seed);
  EXPECT_DOUBLE_EQ(b.open_deadline(), expected);
  // Jitter lands in [base/2, base) on the first trip.
  EXPECT_GE(b.open_deadline(), t0 + 5.0e-3);
  EXPECT_LT(b.open_deadline(), t0 + 10.0e-3);

  // Same options + same seed: an identical twin draws the same window.
  CircuitBreaker twin(breaker_opts(), seed);
  for (int i = 0; i < 3; ++i) twin.on_failure(t0);
  EXPECT_DOUBLE_EQ(twin.open_deadline(), b.open_deadline());
}

TEST(CircuitBreaker, HalfOpenProbesCloseAfterEnoughSuccesses) {
  CircuitBreaker b(breaker_opts(), 7);
  for (int i = 0; i < 3; ++i) b.on_failure(0.0);
  const Seconds after = b.open_deadline() + 1e-6;
  EXPECT_FALSE(b.allow(b.open_deadline() - 1e-6));  // window still holds

  EXPECT_TRUE(b.allow(after));  // open -> half-open, probe slot 1
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(b.allow(after));   // probe slot 2
  EXPECT_FALSE(b.allow(after));  // probe budget exhausted

  b.on_success(after);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  b.on_success(after);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_DOUBLE_EQ(b.open_deadline(), 0.0);
  EXPECT_TRUE(b.allow(after));
}

TEST(CircuitBreaker, HalfOpenFailureReopensWithLongerWindow) {
  CircuitBreaker b(breaker_opts(), 21);
  const Seconds t0 = 0.0;
  for (int i = 0; i < 3; ++i) b.on_failure(t0);
  const Seconds first = b.open_deadline() - t0;

  const Seconds t1 = b.open_deadline() + 1e-6;
  EXPECT_TRUE(b.allow(t1));  // half-open probe
  b.on_failure(t1);          // probe failed: re-trip
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.trips(), 2u);
  const Seconds second = b.open_deadline() - t1;
  // Trip 1 jitters into [5, 10) ms, trip 2 into [10, 20) ms.
  EXPECT_GT(second, first);
  EXPECT_FALSE(b.allow(t1));
}

TEST(CircuitBreaker, LateOutcomesWhileOpenAreIgnored) {
  CircuitBreaker b(breaker_opts(), 3);
  for (int i = 0; i < 3; ++i) b.on_failure(0.0);
  const Seconds deadline = b.open_deadline();
  // Late completions of requests submitted before the trip must not
  // close the breaker or extend the window.
  b.on_success(1e-3);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  b.on_failure(1e-3);
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_DOUBLE_EQ(b.open_deadline(), deadline);
}

TEST(CircuitBreaker, DisabledBreakerAlwaysAllows) {
  BreakerOptions off;
  off.enabled = false;
  off.failure_threshold = 1;
  CircuitBreaker b(off, 5);
  for (int i = 0; i < 10; ++i) b.on_failure(0.0);
  EXPECT_TRUE(b.allow(0.0));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.trips(), 0u);
}

TEST(CircuitBreaker, TransitionCountersTick) {
  telemetry::Registry reg;
  CircuitBreaker::Counters ctrs;
  ctrs.opened = &reg.counter("fwd.overload.breaker_open");
  ctrs.half_opened = &reg.counter("fwd.overload.breaker_half_open");
  ctrs.closed = &reg.counter("fwd.overload.breaker_closed");
  CircuitBreaker b(breaker_opts(), 11, ctrs);

  for (int i = 0; i < 3; ++i) b.on_failure(0.0);
  const Seconds after = b.open_deadline() + 1e-6;
  EXPECT_TRUE(b.allow(after));
  b.on_success(after);
  EXPECT_TRUE(b.allow(after));
  b.on_success(after);

  EXPECT_EQ(counter_sum(reg, "fwd.overload.breaker_open"), 1.0);
  EXPECT_EQ(counter_sum(reg, "fwd.overload.breaker_half_open"), 1.0);
  EXPECT_EQ(counter_sum(reg, "fwd.overload.breaker_closed"), 1.0);
}

// --------------------------------------------------------------------
// Saturation scoring.

TEST(SaturationTracker, DepthCriterionNormalisesToWatermark) {
  AdmissionOptions a;
  a.enabled = true;
  a.queue_high_watermark = 0.5;
  SaturationTracker t(a);
  EXPECT_DOUBLE_EQ(t.score(2, 8), 0.5);  // 2 / (8 * 0.5)
  EXPECT_DOUBLE_EQ(t.score(4, 8), 1.0);
  EXPECT_FALSE(t.rejects(t.score(3, 8)));
  EXPECT_TRUE(t.rejects(t.score(4, 8)));

  AdmissionOptions off = a;
  off.enabled = false;
  SaturationTracker disabled(off);
  EXPECT_DOUBLE_EQ(disabled.score(100, 8), 0.0);
  EXPECT_FALSE(disabled.rejects(disabled.score(100, 8)));
  EXPECT_FALSE(disabled.rejects(2.0));  // disabled never refuses
}

// The slab term: a payload pool whose fullest class is at the slab
// watermark saturates the daemon with its queues empty.
TEST(SaturationTracker, SlabOccupancyAtTheWatermarkRejects) {
  AdmissionOptions a;
  a.enabled = true;
  a.queue_high_watermark = 0.5;
  SaturationTracker t(a);
  EXPECT_DOUBLE_EQ(t.score(0, 8, 0.95), 1.0);
  EXPECT_TRUE(t.rejects(t.score(0, 8, 0.95)));
  // Depth says 0.5, the pool says ~0.53: the max wins, below 1.0.
  EXPECT_DOUBLE_EQ(t.score(2, 8, 0.5), 0.5 / kSlabHighWatermark);
  EXPECT_FALSE(t.rejects(t.score(2, 8, 0.5)));
}

// --------------------------------------------------------------------
// Daemon admission control + deadline propagation.

// r2 and r3 are queued only once the worker draws r1's stall: it pulls
// whatever is queued into its scheduler before that, not after.
TEST(IonDaemonOverload, AdmissionRejectsPastWatermarkFsyncExempt) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.stall(fault::request_site(0), 1.0, 1.0);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  EmulatedPfs pfs(fast_pfs(&reg));
  IonParams params = fast_ion(&reg);
  params.queue_capacity = 4;
  params.injector = &injector;
  params.admission.enabled = true;
  params.admission.queue_high_watermark = 0.5;  // saturates at depth 2
  IonDaemon daemon(0, params, pfs);

  clock.set(1.0);  // inside the stall window
  auto r1 = write_req("/adm", 0, pattern_data(kBlock, 1));
  auto s1 = wait_on(r1);
  ASSERT_EQ(daemon.try_submit(std::move(r1)), SubmitResult::kAccepted);
  // The worker holds r1 in its stall; everything submitted now sits in
  // the ingest queue.
  ASSERT_TRUE(wait_until(
      [&] { return injector.injected(fault::request_site(0)) >= 1; }));

  auto r2 = write_req("/adm", kBlock, pattern_data(kBlock, 2));
  auto r3 = write_req("/adm", 2 * kBlock, pattern_data(kBlock, 3));
  auto s2 = wait_on(r2);
  auto s3 = wait_on(r3);
  ASSERT_EQ(daemon.try_submit(std::move(r2)), SubmitResult::kAccepted);
  ASSERT_EQ(daemon.try_submit(std::move(r3)), SubmitResult::kAccepted);

  // Depth 2 == the high watermark: the next data request bounces fast.
  auto r4 = write_req("/adm", 3 * kBlock, pattern_data(kBlock, 4));
  EXPECT_EQ(daemon.try_submit(std::move(r4)), SubmitResult::kBusy);
  EXPECT_GE(daemon.saturation(), 1.0);
  EXPECT_TRUE(daemon.overloaded());
  EXPECT_TRUE(daemon.alive());  // overloaded != dead
  EXPECT_EQ(counter_sum(reg, "fwd.overload.busy"), 1.0);

  // Fsync markers are exempt: durability barriers are never shed.
  auto sync = fsync_req("/adm");
  auto fsync_slot = wait_on(sync);
  EXPECT_EQ(daemon.try_submit(std::move(sync)), SubmitResult::kAccepted);
  clock.set(3.0);  // past the window: the queued requests do not stall

  EXPECT_EQ(s1->wait().value, kBlock);
  EXPECT_EQ(s2->wait().value, kBlock);
  EXPECT_EQ(s3->wait().value, kBlock);
  EXPECT_TRUE(fsync_slot->wait().ok());
  daemon.drain();
  EXPECT_FALSE(daemon.overloaded());
  // 3 writes + 1 fsync admitted, 1 busy; nothing expired or failed.
  EXPECT_EQ(counter_sum(reg, "qos.tenant.admitted"), 4.0);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.expired"), 0.0);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.failed"), 0.0);
}

// An exhausted payload pool refuses data requests at an idle daemon;
// fsync markers still pass, and the pool's release lifts the refusal.
TEST(IonDaemonOverload, ExhaustedSlabPoolRejectsDataFsyncExempt) {
  telemetry::Registry reg;
  SlabPoolConfig slabs;
  slabs.classes = {{4 * KiB, 2}};
  SlabPool pool(slabs);
  Payload held[] = {pool.try_acquire(kBlock), pool.try_acquire(kBlock)};
  ASSERT_FALSE(held[1].empty());
  ASSERT_DOUBLE_EQ(pool.used_fraction(), 1.0);
  EmulatedPfs pfs(fast_pfs(&reg));
  IonParams params = fast_ion(&reg);
  params.slab_pool = &pool;
  params.admission.enabled = true;
  IonDaemon daemon(0, params, pfs);

  EXPECT_EQ(daemon.try_submit(write_req("/slab", 0, pattern_data(kBlock, 1))),
            SubmitResult::kBusy);
  EXPECT_TRUE(daemon.overloaded());
  EXPECT_EQ(counter_sum(reg, "fwd.overload.busy"), 1.0);

  auto sync = fsync_req("/slab");
  auto fsync_slot = wait_on(sync);
  EXPECT_EQ(daemon.try_submit(std::move(sync)), SubmitResult::kAccepted);
  EXPECT_TRUE(fsync_slot->wait().ok());

  for (auto& p : held) p.reset();
  auto w = write_req("/slab", 0, pattern_data(kBlock, 2));
  auto w_slot = wait_on(w);
  EXPECT_EQ(daemon.try_submit(std::move(w)), SubmitResult::kAccepted);
  EXPECT_EQ(w_slot->wait().value, kBlock);
  daemon.drain();
  EXPECT_FALSE(daemon.overloaded());
}

TEST(IonDaemonOverload, ExpiredDeadlineDroppedAtDequeueCounted) {
  telemetry::Registry reg;
  EmulatedPfs pfs(fast_pfs(&reg));
  IonDaemon daemon(0, fast_ion(&reg), pfs);

  auto req = write_req("/dl", 0, pattern_data(kBlock, 5));
  req.deadline_us = 1;  // long past: expires the moment it is dequeued
  auto slot = wait_on(req);
  ASSERT_EQ(daemon.try_submit(std::move(req)), SubmitResult::kAccepted);
  EXPECT_EQ(slot->wait().status, CompletionStatus::kExpired);

  daemon.drain();
  EXPECT_EQ(counter_sum(reg, "qos.tenant.expired"), 1.0);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.admitted"), 0.0);
  EXPECT_EQ(pfs.bytes_written(), 0u);  // dropped work never dispatches
}

TEST(IonDaemonOverload, FutureOrZeroDeadlineCompletesNormally) {
  telemetry::Registry reg;
  EmulatedPfs pfs(fast_pfs(&reg));
  IonDaemon daemon(0, fast_ion(&reg), pfs);

  auto far = write_req("/dl2", 0, pattern_data(kBlock, 6));
  far.deadline_us = monotonic_micros() + 10'000'000;  // 10 s of slack
  auto far_slot = wait_on(far);
  ASSERT_EQ(daemon.try_submit(std::move(far)), SubmitResult::kAccepted);
  EXPECT_EQ(far_slot->wait().value, kBlock);

  auto none = write_req("/dl2", kBlock, pattern_data(kBlock, 7));
  ASSERT_EQ(none.deadline_us, 0u);  // 0 = wait forever, never dropped
  auto none_slot = wait_on(none);
  ASSERT_EQ(daemon.try_submit(std::move(none)), SubmitResult::kAccepted);
  EXPECT_EQ(none_slot->wait().value, kBlock);

  daemon.drain();
  EXPECT_EQ(counter_sum(reg, "qos.tenant.expired"), 0.0);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.admitted"), 2.0);
}

// --------------------------------------------------------------------
// Cluster scenarios.

// A forced IonBusy answer ("error ... ion.0.busy") is a fast, counted,
// retryable rejection; the block is rescued directly and the identity
// holds.
TEST(OverloadScenarios, BusyFaultAnswersFastAndRescuesDirect) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.error_after(fault::busy_site(0), 1);
  Cluster c(std::move(plan), 1);
  c.service->apply_mapping(mapping_to({0}, 1, 1));

  Client client(c.client_config(), *c.service);
  for (int i = 0; i < 4; ++i) {
    const auto data = pattern_data(kBlock, seed + static_cast<unsigned>(i));
    EXPECT_EQ(client.pwrite(0, "/busy", block_offset(i), kBlock, data),
              kBlock);
  }
  client.fsync("/busy");
  c.service->drain();

  EXPECT_EQ(c.injector.injected(fault::busy_site(0)), 1u);
  EXPECT_EQ(counter_sum(c.reg, "fwd.overload.busy"), 1.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.rejected"), 1.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.direct_fallback"), 1.0);
  expect_blocks_on_pfs(c.service->pfs(), "/busy", 4, seed);
  expect_overload_identity(c.reg);
}

// With QoS off the admission ledger is the default tenant's row, and it
// is the only place an outcome is counted. One sub-request walks a busy
// rejection (its preferred ION), an expiry (the other ION stalls the
// offer past its deadline) and the direct-PFS rescue that follows.
TEST(OverloadScenarios, LedgerIsTheOnlyLedger) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  const std::string path = "/ledger";
  const int first = static_cast<int>(
      gkfs::daemon_of(gkfs::hash_path(path), /*chunk=*/0, 2));
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.error_after(fault::busy_site(first), 1);
  plan.stall(fault::busy_site(1 - first), 0.0, 0.1);
  Cluster c(std::move(plan), 2);
  ASSERT_EQ(c.service->qos(), nullptr);
  c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

  ClientConfig cc = c.client_config();
  cc.request_timeout = 0.05;  // shorter than the stall: the offer expires
  cc.max_attempts = 1;
  Client client(cc, *c.service);
  const auto data = pattern_data(kBlock, seed);
  EXPECT_EQ(client.pwrite(0, path, 0, kBlock, data), kBlock);
  client.fsync(path);  // markers: exempt from busy checks, never expire
  c.service->drain();

  const auto snap = c.reg.snapshot();
  const telemetry::Labels row{{"tenant", "default"}};
  auto bucket = [&](const std::string& name) {
    const telemetry::Sample* s = snap.find(name, row);
    EXPECT_NE(s, nullptr) << name << " has no tenant=default row";
    return s ? s->value : -1.0;
  };
  const double submitted = bucket("qos.tenant.submitted");
  const double admitted = bucket("qos.tenant.admitted");
  const double rejected = bucket("qos.tenant.rejected");
  const double expired = bucket("qos.tenant.expired");
  const double fallback = bucket("qos.tenant.direct_fallback");
  const double failed = bucket("qos.tenant.failed");
  EXPECT_EQ(rejected, 1.0);
  EXPECT_EQ(expired, 1.0);
  EXPECT_EQ(fallback, 1.0);
  EXPECT_EQ(failed, 0.0);
  // Two offers and the rescue, then one fsync marker per ION.
  EXPECT_EQ(submitted, 3.0 + 2.0);
  EXPECT_EQ(admitted, 2.0);
  EXPECT_EQ(submitted, admitted + rejected + expired + fallback + failed);
  for (const char* gone : {"fwd.overload.submitted", "fwd.overload.admitted",
                           "fwd.overload.rejected", "fwd.overload.expired",
                           "fwd.overload.direct_fallback",
                           "fwd.client.direct_fallback",
                           "fwd.ion.failed_requests"}) {
    for (const auto& s : snap.samples) {
      EXPECT_NE(s.name, gone) << "a second ledger is registered";
    }
  }
  expect_blocks_on_pfs(c.service->pfs(), path, 1, seed);
}

// An infinite request timeout means "wait as long as it takes": no
// offer may time out, expire at dequeue or fall back to the PFS.
TEST(OverloadScenarios, InfiniteRequestTimeoutNeverGivesUp) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  Cluster c(std::move(plan), 1);
  c.service->apply_mapping(mapping_to({0}, 1, 1));

  ClientConfig cc = c.client_config();
  cc.request_timeout = std::numeric_limits<double>::infinity();
  Client client(cc, *c.service);
  constexpr int kWrites = 64;
  for (int i = 0; i < kWrites; ++i) {
    const auto data = pattern_data(kBlock, seed + static_cast<unsigned>(i));
    EXPECT_EQ(client.pwrite(0, "/inf", block_offset(i), kBlock, data),
              kBlock);
  }
  client.fsync("/inf");
  c.service->drain();

  EXPECT_EQ(counter_sum(c.reg, "fwd.retries"), 0.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.expired"), 0.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.direct_fallback"), 0.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.admitted"), kWrites + 1.0);
  expect_blocks_on_pfs(c.service->pfs(), "/inf", kWrites, seed);
  expect_overload_identity(c.reg);
}

// Consecutive refusals trip the per-ION breaker; while it is open the
// client stops offering work entirely and degrades to the shared,
// bandwidth-capped direct-PFS path.
TEST(OverloadScenarios, RefusalsTripBreakerAndDegradeRateLimited) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  Cluster c(std::move(plan), 1, [](ServiceConfig& cfg) {
    cfg.fallback_bandwidth = 400.0 * MiB;
  });
  ASSERT_NE(c.service->fallback_limiter(), nullptr);
  c.service->apply_mapping(mapping_to({0}, 1, 1));

  ClientConfig cc = c.client_config();
  cc.breaker.enabled = true;
  cc.breaker.failure_threshold = 2;
  cc.breaker.open_base = 10.0;  // stays open for the whole test
  cc.breaker.open_cap = 20.0;
  Client client(cc, *c.service);

  c.service->daemon(0).crash();  // every offer is now refused fast
  for (int i = 0; i < 6; ++i) {
    const auto data = pattern_data(kBlock, seed + static_cast<unsigned>(i));
    EXPECT_EQ(client.pwrite(0, "/deg", block_offset(i), kBlock, data),
              kBlock);
  }

  ASSERT_NE(client.breaker(0), nullptr);
  EXPECT_EQ(client.breaker(0)->state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(client.breaker(0)->trips(), 1u);
  // Blocks 0-1 were offered (and refused) before the trip; blocks 2-5
  // skipped the ION without an offer.
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.rejected"), 2.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.direct_fallback"), 6.0);
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.submitted"), 8.0);
  expect_overload_identity(c.reg);
  // Direct writes own durability: everything is already on the PFS.
  expect_blocks_on_pfs(c.service->pfs(), "/deg", 6, seed);
}

// ~10x offered load against 2 small IONs: the run completes, queues
// stay bounded, nothing crashes, and the accounting identity holds
// exactly across admitted / rejected / expired / direct-fallback. The
// overload is made, not hoped for: while the fault clock sits in the
// IONs' stall windows every dispatch stalls for 1 s, and the threads
// make their first offers together only once a primer write has put
// each ION's worker into such a stall. Their 16 first offers queue
// behind it, at least 8 at one ION, whose watermark is 4. The test
// keeps the clock there until the queue depth drew a refusal or every
// thread is done.
TEST(OverloadScenarios, TenXLoadCompletesWithExactAccounting) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.stall(fault::request_site(0), 1.0, 1.0)
      .stall(fault::request_site(1), 1.0, 1.0);
  Cluster c(std::move(plan), 2, [](ServiceConfig& cfg) {
    cfg.ion.queue_capacity = 8;
    cfg.ion.dispatch_latency = 5.0e-3;  // ~200 req/s per ION
    cfg.ion.admission.enabled = true;
    cfg.ion.admission.queue_high_watermark = 0.5;  // refuse past depth 4
    cfg.fallback_bandwidth = 100.0 * MiB;
  });
  c.service->apply_mapping(mapping_to({0, 1}, 1, 2));

  ClientConfig cc = c.client_config();
  cc.request_timeout = 0.05;
  cc.max_attempts = 3;
  cc.breaker.enabled = true;
  cc.breaker.failure_threshold = 3;
  cc.breaker.open_base = 5.0e-3;
  cc.breaker.open_cap = 40.0e-3;
  Client client(cc, *c.service);

  constexpr int kThreads = 16;
  constexpr int kBlocks = 8;
  c.clock.set(1.0);  // inside both stall windows: the IONs are held
  std::vector<std::thread> primers;
  for (int d = 0; d < 2; ++d) {
    primers.emplace_back([&, d] {
      // A one-block file whose only chunk lives on ION d.
      std::string path;
      for (int n = 0; path.empty(); ++n) {
        const std::string p = "/prime." + std::to_string(n);
        if (gkfs::daemon_of(gkfs::hash_path(p), 0, 2) ==
            static_cast<std::size_t>(d)) {
          path = p;
        }
      }
      const auto data = pattern_data(kBlock, seed + 99);
      EXPECT_EQ(client.pwrite(100, path, 0, kBlock, data), kBlock);
    });
  }
  const bool primed = wait_until(
      [&] {
        return c.injector.injected(fault::request_site(0)) >= 1 &&
               c.injector.injected(fault::request_site(1)) >= 1;
      },
      30.0);
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<int> done{0};
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::string path = "/ovl" + std::to_string(t);
      start.arrive_and_wait();
      for (int i = 0; i < kBlocks; ++i) {
        const auto data = pattern_data(
            kBlock, seed + static_cast<unsigned>(t * 1000 + i));
        bytes.fetch_add(client.pwrite(static_cast<std::uint32_t>(t), path,
                                      block_offset(i), kBlock, data));
      }
      done.fetch_add(1);
    });
  }
  wait_until(
      [&] {
        return counter_sum(c.reg, "fwd.overload.busy") >= 1.0 ||
               done.load() == kThreads;
      },
      30.0);
  c.clock.set(3.0);  // past the windows: the IONs drain at full speed
  for (auto& w : workers) w.join();
  for (auto& p : primers) p.join();
  EXPECT_TRUE(primed) << "a primer write never reached its ION";
  EXPECT_EQ(bytes.load(),
            static_cast<std::uint64_t>(kThreads) * kBlocks * kBlock);

  for (int t = 0; t < kThreads; ++t) {
    client.fsync("/ovl" + std::to_string(t));
  }
  c.service->drain();

  // The overload actually happened, and the stack absorbed it: queues
  // drained, both daemons still alive, no accepted request died.
  EXPECT_GE(counter_sum(c.reg, "fwd.overload.busy"), 1.0);
  for (int d = 0; d < 2; ++d) {
    EXPECT_TRUE(c.service->daemon(d).alive());
    EXPECT_EQ(c.service->daemon(d).queue_depth(), 0u);
  }
  EXPECT_EQ(counter_sum(c.reg, "qos.tenant.failed"), 0.0);
  expect_overload_identity(c.reg);
  for (int t = 0; t < kThreads; ++t) {
    expect_blocks_on_pfs(c.service->pfs(), "/ovl" + std::to_string(t),
                         kBlocks, seed + static_cast<unsigned>(t * 1000));
  }
}

// Same plan + same seed => byte-identical overload counter dumps (the
// probabilistic busy site draws from per-site seeded streams, and the
// single-threaded client offers in a deterministic order).
TEST(OverloadScenarios, SameSeedCounterDumpsAreByteIdentical) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);

  auto run_once = [&]() {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.error_prob(fault::busy_site(0), 0.4);
    Cluster c(std::move(plan), 1);
    c.service->apply_mapping(mapping_to({0}, 1, 1));
    Client client(c.client_config(), *c.service);
    for (int i = 0; i < 8; ++i) {
      const auto data =
          pattern_data(kBlock, seed + static_cast<unsigned>(i));
      EXPECT_EQ(client.pwrite(0, "/det", block_offset(i), kBlock, data),
                kBlock);
    }
    client.fsync("/det");
    c.service->drain();
    expect_overload_identity(c.reg);
    return overload_counter_dump(c.reg);
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed replay diverged";
}

// --------------------------------------------------------------------
// Health integration: overloaded-but-alive is a load hint, never an
// eviction; dead needs K consecutive missed heartbeats.

TEST(OverloadScenarios, OverloadedIonFeedsLoadHintNotEviction) {
  const std::uint64_t seed = base_seed();
  IOFA_TRACE_SEED(seed);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.stall(fault::request_site(0), 1.0, 1.0);
  Cluster c(std::move(plan), 2, [](ServiceConfig& cfg) {
    cfg.ion.queue_capacity = 4;
    cfg.ion.admission.enabled = true;
    cfg.ion.admission.queue_high_watermark = 0.5;  // saturates at depth 2
  });
  core::Arbiter arbiter = make_arbiter(c, 2);
  HealthMonitor hm(*c.service, arbiter);

  arbiter.job_started(kJob, core::AppEntry{"ovl", 8, 16, drill_curve()});
  c.service->apply_mapping(arbiter.mapping());
  EXPECT_FALSE(hm.poll_once());
  const auto epoch_before = c.service->mapping_store().epoch();

  // Back up daemon 0: one request held in a request-site stall, two
  // more queued behind it.
  auto& d0 = c.service->daemon(0);
  c.clock.set(1.0);  // inside the stall window
  auto r1 = write_req("/hint", 0, pattern_data(kBlock, 1));
  auto s1 = wait_on(r1);
  ASSERT_EQ(d0.try_submit(std::move(r1)), SubmitResult::kAccepted);
  ASSERT_TRUE(wait_until(
      [&] { return c.injector.injected(fault::request_site(0)) >= 1; }));
  auto r2 = write_req("/hint", kBlock, pattern_data(kBlock, 2));
  auto r3 = write_req("/hint", 2 * kBlock, pattern_data(kBlock, 3));
  auto s2 = wait_on(r2);
  auto s3 = wait_on(r3);
  ASSERT_EQ(d0.try_submit(std::move(r2)), SubmitResult::kAccepted);
  ASSERT_EQ(d0.try_submit(std::move(r3)), SubmitResult::kAccepted);
  ASSERT_TRUE(d0.overloaded());
  ASSERT_TRUE(d0.alive());

  // The sweep turns saturation into an arbiter hint - no eviction, no
  // re-solve, no republish.
  EXPECT_FALSE(hm.poll_once());
  EXPECT_EQ(hm.failures_seen(), 0u);
  EXPECT_TRUE(arbiter.failed_ions().empty());
  EXPECT_GE(arbiter.load_hint(0), 1.0);
  EXPECT_EQ(c.service->mapping_store().epoch(), epoch_before);
  EXPECT_EQ(counter_sum(c.reg, "arbiter.resolves_on_failure"), 0.0);

  c.clock.set(3.0);  // past the window: the queued requests do not stall
  EXPECT_TRUE(s1->wait().ok());
  EXPECT_TRUE(s2->wait().ok());
  EXPECT_TRUE(s3->wait().ok());
  c.service->drain();
  // Once the queue drains the hint clears on the next sweep.
  EXPECT_FALSE(hm.poll_once());
  EXPECT_DOUBLE_EQ(arbiter.load_hint(0), 0.0);
}

// --------------------------------------------------------------------
// Knob validation: nonsensical combinations die loudly before any
// thread or daemon starts.

jobs::LiveExecutorOptions overload_live_opts() {
  jobs::LiveExecutorOptions o;
  o.request_timeout = 0.05;
  o.max_attempts = 3;
  o.admission.enabled = true;
  o.admission.queue_high_watermark = 0.9;
  o.breaker.enabled = true;
  o.fallback_bandwidth = 200.0 * MiB;
  return o;
}

TEST(ValidateLiveOptions, AcceptsDefaultsAndFullOverloadConfig) {
  EXPECT_NO_THROW(jobs::validate_live_options(jobs::LiveExecutorOptions{}));
  EXPECT_NO_THROW(jobs::validate_live_options(overload_live_opts()));
}

TEST(ValidateLiveOptions, RejectsNonsensicalKnobs) {
  {
    auto o = overload_live_opts();
    o.max_attempts = 0;  // negative retry budget territory
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.request_timeout = -1.0;
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.request_timeout = 0.0;  // breaker with zero timeout: senseless
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  for (const bool breaker : {false, true}) {
    auto o = overload_live_opts();
    o.breaker.enabled = breaker;
    o.request_timeout = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.rpc.ack_timeout = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.client_backoff.base = 10.0e-3;
    o.client_backoff.cap = 1.0e-3;  // inverted bounds
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.breaker.failure_threshold = 0;
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.breaker.open_base = 50.0e-3;
    o.breaker.open_cap = 10.0e-3;
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.admission.queue_high_watermark = 0.0;
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.admission.queue_high_watermark = 1.5;
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
  {
    auto o = overload_live_opts();
    o.fallback_bandwidth = -1.0;
    EXPECT_THROW(jobs::validate_live_options(o), std::invalid_argument);
  }
}

}  // namespace
}  // namespace iofa::fwd
