// Tests for the AGIOS scheduling library: each scheduler's policy
// behaviour plus cross-scheduler invariants (parameterized: nothing is
// lost or duplicated, sizes are preserved).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "agios/aggregation.hpp"
#include "agios/aioli.hpp"
#include "agios/fifo.hpp"
#include "agios/mlf.hpp"
#include "agios/quantum.hpp"
#include "agios/scheduler.hpp"
#include "agios/sjf.hpp"
#include "agios/twins.hpp"
#include "common/rng.hpp"
#include "qos/scheduler.hpp"
#include "qos/tenant.hpp"

namespace iofa::agios {
namespace {

SchedRequest req(std::uint64_t tag, std::uint64_t file, std::uint64_t offset,
                 std::uint64_t size, Seconds arrival = 0.0,
                 ReqOp op = ReqOp::Write) {
  SchedRequest r;
  r.tag = tag;
  r.file_id = file;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.arrival = arrival;
  return r;
}

/// Drain everything, advancing a fake clock past any hold window.
std::vector<Dispatch> drain(Scheduler& s, Seconds start = 0.0) {
  std::vector<Dispatch> out;
  Seconds now = start;
  int idle = 0;
  while (!s.empty() && idle < 10000) {
    if (auto d = s.pop(now)) {
      out.push_back(std::move(*d));
      idle = 0;
    } else {
      if (auto t = s.next_ready_time(now)) {
        now = std::max(*t, now + 1e-6);
      } else {
        now += 1e-3;
      }
      ++idle;
    }
  }
  return out;
}

// ------------------------------------------------------------------ FIFO
TEST(Fifo, ArrivalOrder) {
  FifoScheduler s;
  s.add(req(1, 10, 0, 100));
  s.add(req(2, 11, 0, 100));
  s.add(req(3, 10, 100, 100));
  const auto out = drain(s);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].parts[0].tag, 1u);
  EXPECT_EQ(out[1].parts[0].tag, 2u);
  EXPECT_EQ(out[2].parts[0].tag, 3u);
}

TEST(Fifo, EmptyPopsNothing) {
  FifoScheduler s;
  EXPECT_FALSE(s.pop(0.0).has_value());
  EXPECT_TRUE(s.empty());
}

// ------------------------------------------------------------------- SJF
TEST(Sjf, SmallestFirst) {
  SjfScheduler s(/*aging_limit=*/100.0);
  s.add(req(1, 1, 0, 900));
  s.add(req(2, 1, 0, 100));
  s.add(req(3, 1, 0, 500));
  const auto out = drain(s);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].parts[0].tag, 2u);
  EXPECT_EQ(out[1].parts[0].tag, 3u);
  EXPECT_EQ(out[2].parts[0].tag, 1u);
}

TEST(Sjf, AgingPreventsStarvation) {
  SjfScheduler s(/*aging_limit=*/1.0);
  s.add(req(1, 1, 0, 1000, /*arrival=*/0.0));  // big and old
  s.add(req(2, 1, 0, 10, /*arrival=*/1.5));
  // At t=2.0 the big request is 2.0 old (>= limit): served first.
  const auto d = s.pop(2.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->parts[0].tag, 1u);
}

TEST(Sjf, FifoWithinSameSize) {
  SjfScheduler s(100.0);
  s.add(req(1, 1, 0, 64));
  s.add(req(2, 1, 64, 64));
  const auto out = drain(s);
  EXPECT_EQ(out[0].parts[0].tag, 1u);
  EXPECT_EQ(out[1].parts[0].tag, 2u);
}

// ---------------------------------------------------------------- TO-AGG
TEST(Aggregation, MergesContiguousSameFile) {
  AggregationScheduler s(/*window=*/0.01, /*max=*/1 << 20);
  s.add(req(1, 1, 0, 100, 0.0));
  s.add(req(2, 1, 100, 100, 0.0));
  s.add(req(3, 1, 200, 100, 0.0));
  const auto out = drain(s, /*start=*/1.0);  // window expired
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].offset, 0u);
  EXPECT_EQ(out[0].size, 300u);
  EXPECT_EQ(out[0].parts.size(), 3u);
  EXPECT_TRUE(out[0].aggregated());
}

TEST(Aggregation, DoesNotMergeAcrossFiles) {
  AggregationScheduler s(0.01, 1 << 20);
  s.add(req(1, 1, 0, 100, 0.0));
  s.add(req(2, 2, 100, 100, 0.0));
  const auto out = drain(s, 1.0);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Aggregation, DoesNotMergeWriteWithRead) {
  AggregationScheduler s(0.01, 1 << 20);
  s.add(req(1, 1, 0, 100, 0.0, ReqOp::Write));
  s.add(req(2, 1, 100, 100, 0.0, ReqOp::Read));
  const auto out = drain(s, 1.0);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Aggregation, GapsBreakRuns) {
  AggregationScheduler s(0.01, 1 << 20);
  s.add(req(1, 1, 0, 100, 0.0));
  s.add(req(2, 1, 300, 100, 0.0));  // hole at [100, 300)
  const auto out = drain(s, 1.0);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Aggregation, HoldsUntilWindowExpires) {
  AggregationScheduler s(/*window=*/0.5, 1 << 20);
  s.add(req(1, 1, 0, 100, /*arrival=*/0.0));
  EXPECT_FALSE(s.pop(0.1).has_value());  // still inside the window
  const auto ready = s.next_ready_time(0.1);
  ASSERT_TRUE(ready.has_value());
  EXPECT_DOUBLE_EQ(*ready, 0.5);
  EXPECT_TRUE(s.pop(0.6).has_value());
}

TEST(Aggregation, FullRunDispatchesImmediately) {
  // A contiguous run reaching the cap must not wait for the window.
  AggregationScheduler s(/*window=*/10.0, /*max=*/200);
  s.add(req(1, 1, 0, 100, 0.0));
  s.add(req(2, 1, 100, 100, 0.0));
  const auto d = s.pop(0.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size, 200u);
}

TEST(Aggregation, RespectsMaxAggregateSize) {
  AggregationScheduler s(0.0, /*max=*/250);
  for (int i = 0; i < 5; ++i) {
    s.add(req(static_cast<std::uint64_t>(i + 1), 1,
              static_cast<std::uint64_t>(i) * 100, 100, 0.0));
  }
  const auto out = drain(s, 1.0);
  for (const auto& d : out) EXPECT_LE(d.size, 300u);  // <= max + one part
  std::size_t parts = 0;
  for (const auto& d : out) parts += d.parts.size();
  EXPECT_EQ(parts, 5u);
}

TEST(Aggregation, BackwardExtensionJoinsEarlierOffsets) {
  AggregationScheduler s(/*window=*/0.5, 1 << 20);
  s.add(req(1, 1, 100, 100, /*arrival=*/0.0));  // ripe first
  s.add(req(2, 1, 0, 100, /*arrival=*/0.4));    // earlier offset, younger
  const auto d = s.pop(0.55);  // only tag 1 is past its window
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->offset, 0u);
  EXPECT_EQ(d->size, 200u);
}

TEST(Aggregation, OverCapContiguousRunSplitsAtTheCap) {
  // An over-cap contiguous run (800 bytes against a 250-byte cap) must
  // come out as several dispatches, none above the cap, covering every
  // part exactly once and in offset order.
  AggregationScheduler s(/*window=*/10.0, /*max=*/250);
  for (int i = 0; i < 8; ++i) {
    s.add(req(static_cast<std::uint64_t>(i + 1), 1,
              static_cast<std::uint64_t>(i) * 100, 100, /*arrival=*/0.0));
  }
  const auto out = drain(s, 0.0);
  ASSERT_GT(out.size(), 1u);
  std::uint64_t next_offset = 0;
  std::size_t parts = 0;
  for (const auto& d : out) {
    EXPECT_LE(d.size, 250u);
    EXPECT_EQ(d.offset, next_offset);
    next_offset = d.offset + d.size;
    parts += d.parts.size();
  }
  EXPECT_EQ(parts, 8u);
  EXPECT_EQ(next_offset, 800u);
}

TEST(Aggregation, BackwardExtensionKeepsRipeRequestUnderCap) {
  // Backward extension accounts joined bytes against the cap, so the
  // run through the ripe request stays dispatchable: the request whose
  // expiry triggered the pop must be part of the dispatch, and the
  // merged run must not exceed the cap.
  AggregationScheduler s(/*window=*/0.5, /*max=*/250);
  s.add(req(1, 1, 0, 100, /*arrival=*/0.4));    // younger, earlier offset
  s.add(req(2, 1, 100, 100, /*arrival=*/0.0));  // ripe at t=0.55
  const auto d = s.pop(0.55);
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(d->size, 250u);
  bool has_ripe = false;
  for (const auto& p : d->parts) has_ripe |= (p.tag == 2);
  EXPECT_TRUE(has_ripe);
  EXPECT_EQ(d->offset, 0u);
  EXPECT_EQ(d->size, 200u);
}

TEST(Aggregation, StatsCountMerges) {
  AggregationScheduler s(0.0, 1 << 20);
  s.add(req(1, 1, 0, 100, 0.0));
  s.add(req(2, 1, 100, 100, 0.0));
  drain(s, 1.0);
  EXPECT_EQ(s.dispatches(), 1u);
  EXPECT_EQ(s.merged_requests(), 2u);
}

// ----------------------------------------------------------------- TWINS
TEST(Twins, ServesOnlyCurrentWindowServer) {
  TwinsScheduler s(/*window=*/1.0, /*servers=*/2, /*stripe=*/1024);
  // file 0, offset 0 -> server (0+0)%2 = 0; offset 1024 -> server 1.
  s.add(req(1, 0, 0, 100));
  s.add(req(2, 0, 1024, 100));
  // Window 0 (t in [0,1)): server 0.
  auto d = s.pop(0.5);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->parts[0].tag, 1u);
  EXPECT_FALSE(s.pop(0.5).has_value());  // server 1's turn is later
  // Window 1: server 1.
  d = s.pop(1.5);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->parts[0].tag, 2u);
}

TEST(Twins, NextReadyTimeIsNextWindow) {
  TwinsScheduler s(1.0, 2, 1024);
  s.add(req(1, 0, 1024, 100));  // server 1
  EXPECT_FALSE(s.pop(0.2).has_value());
  const auto t = s.next_ready_time(0.2);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 1.0);
}

TEST(Twins, ServerOfIsStable) {
  TwinsScheduler s(1.0, 4, 1 << 20);
  const auto r = req(1, 77, 5 << 20, 100);
  EXPECT_EQ(s.server_of(r), s.server_of(r));
  EXPECT_LT(s.server_of(r), 4);
}

TEST(Twins, DrainsEverything) {
  TwinsScheduler s(0.001, 3, 4096);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 50; ++i) {
    s.add(req(i + 1, rng.uniform_u64(0, 3), rng.uniform_u64(0, 64) * 4096,
              4096));
  }
  const auto out = drain(s);
  std::size_t total = 0;
  for (const auto& d : out) total += d.parts.size();
  EXPECT_EQ(total, 50u);
}

// ------------------------------------------------------------------ HBRR
TEST(Hbrr, RoundRobinAcrossFiles) {
  QuantumScheduler s(/*quantum=*/100);
  s.add(req(1, 1, 0, 100));
  s.add(req(2, 1, 100, 100));
  s.add(req(3, 2, 0, 100));
  s.add(req(4, 2, 100, 100));
  const auto out = drain(s);
  ASSERT_EQ(out.size(), 4u);
  // Quantum of 100 bytes: one request per file per turn -> 1,3,2,4.
  EXPECT_EQ(out[0].parts[0].tag, 1u);
  EXPECT_EQ(out[1].parts[0].tag, 3u);
  EXPECT_EQ(out[2].parts[0].tag, 2u);
  EXPECT_EQ(out[3].parts[0].tag, 4u);
}

TEST(Hbrr, LargeQuantumKeepsFileTogether) {
  QuantumScheduler s(/*quantum=*/1 << 20);
  s.add(req(1, 1, 0, 100));
  s.add(req(2, 1, 100, 100));
  s.add(req(3, 2, 0, 100));
  const auto out = drain(s);
  EXPECT_EQ(out[0].parts[0].tag, 1u);
  EXPECT_EQ(out[1].parts[0].tag, 2u);  // same file continues in quantum
  EXPECT_EQ(out[2].parts[0].tag, 3u);
}

// ----------------------------------------------------------------- aIOLi
TEST(Aioli, ServesOffsetOrderWithinFile) {
  AioliScheduler s(/*base=*/1 << 20, /*max=*/1 << 24, /*wait=*/0.0);
  s.add(req(1, 1, 200, 100));
  s.add(req(2, 1, 0, 100));
  s.add(req(3, 1, 100, 100));
  const auto out = drain(s);
  ASSERT_GE(out.size(), 1u);
  // First dispatch starts at the lowest offset.
  EXPECT_EQ(out[0].offset, 0u);
}

TEST(Aioli, MergesContiguousWithinQuantum) {
  AioliScheduler s(/*base=*/400, /*max=*/1 << 20, /*wait=*/0.0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    s.add(req(i + 1, 1, i * 100, 100));
  }
  const auto d = s.pop(1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size, 400u);  // four requests merged up to the quantum
  EXPECT_EQ(d->parts.size(), 4u);
}

TEST(Aioli, QuantumGrowsForSequentialStreams) {
  // Base quantum 200: first turn serves 2 of 8 contiguous requests;
  // the continuation doubles the quantum, so later turns serve more.
  AioliScheduler s(/*base=*/200, /*max=*/1 << 20, /*wait=*/0.0);
  for (std::uint64_t i = 0; i < 14; ++i) {
    s.add(req(i + 1, 1, i * 100, 100));
  }
  const auto first = s.pop(1.0);
  const auto second = s.pop(1.0);
  const auto third = s.pop(1.0);
  ASSERT_TRUE(first && second && third);
  EXPECT_EQ(first->size, 200u);
  EXPECT_EQ(second->size, 400u);  // doubled
  EXPECT_EQ(third->size, 800u);   // doubled again
}

TEST(Aioli, HoldsForWaitWindowWhenStreamBreaks) {
  AioliScheduler s(/*base=*/1 << 20, /*max=*/1 << 24, /*wait=*/0.5);
  s.add(req(1, 1, 0, 100, /*arrival=*/0.0));
  EXPECT_FALSE(s.pop(0.1).has_value());  // not ripe, no continuation
  const auto ready = s.next_ready_time(0.1);
  ASSERT_TRUE(ready.has_value());
  EXPECT_DOUBLE_EQ(*ready, 0.5);
  EXPECT_TRUE(s.pop(0.6).has_value());
}

// ------------------------------------------------------------------- MLF
TEST(Mlf, NewFilesStartAtTopLevel) {
  MlfScheduler s(/*base=*/1 << 20, /*levels=*/4);
  s.add(req(1, 7, 0, 100));
  EXPECT_EQ(s.level_of(7), 0);
  EXPECT_EQ(s.level_of(999), -1);
}

TEST(Mlf, HeavyFileSinksToLowerLevels) {
  MlfScheduler s(/*base=*/100, /*levels=*/3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    s.add(req(i + 1, 7, i * 100, 100));  // each request eats a quantum
  }
  drain(s);
  EXPECT_GE(s.level_of(7), 1);  // demoted at least once
}

TEST(Mlf, TopLevelServedBeforeLowerLevels) {
  MlfScheduler s(/*base=*/100, /*levels=*/3);
  // Sink file 1 to a lower level...
  s.add(req(1, 1, 0, 100));
  s.add(req(2, 1, 100, 100));
  ASSERT_TRUE(s.pop(0.0).has_value());  // file 1 exhausts its quantum
  // ...then a fresh file arrives at the top level.
  s.add(req(3, 2, 0, 10));
  const auto d = s.pop(0.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->file_id, 2u);  // the top-level newcomer goes first
}

TEST(Mlf, DrainsInterleavedFiles) {
  MlfScheduler s(/*base=*/256, /*levels=*/4);
  Rng rng(3);
  for (std::uint64_t i = 0; i < 60; ++i) {
    s.add(req(i + 1, rng.uniform_u64(0, 4), i * 128, 128));
  }
  const auto out = drain(s);
  std::size_t total = 0;
  for (const auto& d : out) total += d.parts.size();
  EXPECT_EQ(total, 60u);
}

// --------------------------------------------- cross-scheduler invariants
class AllSchedulers : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(AllSchedulers, ConservesAllRequests) {
  SchedulerConfig cfg;
  cfg.kind = GetParam();
  cfg.aggregation_window = 0.001;
  auto s = make_scheduler(cfg);
  ASSERT_NE(s, nullptr);

  Rng rng(42);
  std::map<std::uint64_t, std::uint64_t> sizes;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    const std::uint64_t size = (1 + rng.uniform_u64(0, 15)) * 4096;
    const std::uint64_t file = rng.uniform_u64(0, 5);
    const std::uint64_t offset = rng.uniform_u64(0, 255) * 65536;
    sizes[i] = size;
    s->add(req(i, file, offset, size, 0.0,
               rng.uniform01() < 0.5 ? ReqOp::Write : ReqOp::Read));
  }

  std::set<std::uint64_t> seen;
  Seconds now = 0.0;
  while (!s->empty()) {
    if (auto d = s->pop(now)) {
      std::uint64_t part_total = 0;
      for (const auto& part : d->parts) {
        EXPECT_TRUE(seen.insert(part.tag).second)
            << "duplicate tag " << part.tag;
        EXPECT_EQ(part.size, sizes.at(part.tag));
        EXPECT_EQ(part.file_id, d->file_id);
        EXPECT_EQ(static_cast<int>(part.op), static_cast<int>(d->op));
        part_total += part.size;
      }
      EXPECT_EQ(part_total, d->size);
    } else {
      now += 0.0005;
    }
  }
  EXPECT_EQ(seen.size(), 200u);
}

/// The ready-time contract the ION worker sleeps on: whenever pop(now)
/// returns nothing from a non-empty scheduler, next_ready_time(now)
/// reports some t and pop(t) dispatches. A miss by rounding would leave
/// the worker woken at t with nothing to do.
void check_ready_time_contract(Scheduler& s, Rng& rng) {
  std::vector<SchedRequest> arrivals;
  const int n = 1 + static_cast<int>(rng.uniform_u64(0, 7));
  for (int i = 0; i < n; ++i) {
    SchedRequest r = req(static_cast<std::uint64_t>(i + 1),
                         rng.uniform_u64(0, 2), rng.uniform_u64(0, 63) * 4096,
                         4096, rng.uniform01() * 10.0);
    r.tenant = static_cast<std::uint32_t>(rng.uniform_u64(0, 2));
    arrivals.push_back(r);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const auto& a, const auto& b) { return a.arrival < b.arrival; });
  std::size_t next = 0;
  std::size_t served = 0;
  Seconds now = 0.0;
  while (next < arrivals.size() || !s.empty()) {
    while (next < arrivals.size() && arrivals[next].arrival <= now) {
      s.add(arrivals[next++]);
    }
    while (auto d = s.pop(now)) served += d->parts.size();
    const Seconds next_arrival = next < arrivals.size()
                                     ? arrivals[next].arrival
                                     : std::numeric_limits<Seconds>::infinity();
    if (s.empty()) {
      now = next_arrival;
      continue;
    }
    const auto t = s.next_ready_time(now);
    ASSERT_TRUE(t.has_value()) << s.name() << " holds work at " << now
                               << " but reports no ready time";
    if (next_arrival <= *t) {
      now = next_arrival;
      continue;
    }
    const auto d = s.pop(*t);
    ASSERT_TRUE(d.has_value()) << s.name() << " reported " << *t
                               << " (asked at " << now
                               << ") but pop() there returned nothing";
    served += d->parts.size();
    now = *t;
  }
  EXPECT_EQ(served, arrivals.size());
}

TEST_P(AllSchedulers, PopAtTheReportedReadyTimeDispatches) {
  qos::QosOptions options;
  options.enabled = true;
  qos::TenantSpec gold;
  gold.name = "gold";
  gold.klass = qos::PriorityClass::Guaranteed;
  gold.reserved_bandwidth = 60.0;
  qos::TenantSpec silver;
  silver.name = "silver";
  silver.klass = qos::PriorityClass::Burst;
  silver.reserved_bandwidth = 20.0;
  options.tenants = {gold, silver};
  const qos::TenantRegistry tenants(options, 100.0);

  Rng rng(0x5EED);
  for (int trial = 0; trial < 2000; ++trial) {
    SchedulerConfig cfg;
    cfg.kind = GetParam();
    // TO-AGG windows from 0.1 ms to 100 ms, so sums of arrival and
    // window round in every direction.
    cfg.aggregation_window = 1e-4 * std::pow(1000.0, rng.uniform01());
    auto plain = make_scheduler(cfg);
    check_ready_time_contract(*plain, rng);
    auto weighted = qos::make_tenant_scheduler(tenants, cfg);
    check_ready_time_contract(*weighted, rng);
    if (HasFatalFailure()) return;
  }
}

TEST_P(AllSchedulers, NameNonEmptyAndFactoryWorks) {
  SchedulerConfig cfg;
  cfg.kind = GetParam();
  auto s = make_scheduler(cfg);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->name().empty());
  EXPECT_EQ(s->name(), to_string(GetParam()));
  EXPECT_TRUE(s->empty());
}

INSTANTIATE_TEST_SUITE_P(Agios, AllSchedulers,
                         ::testing::Values(SchedulerKind::Fifo,
                                           SchedulerKind::Sjf,
                                           SchedulerKind::TimeWindowAggregation,
                                           SchedulerKind::Twins,
                                           SchedulerKind::Hbrr,
                                           SchedulerKind::Aioli,
                                           SchedulerKind::Mlf),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           std::string out;
                           for (char c : n) {
                             if (std::isalnum(static_cast<unsigned char>(c)))
                               out += c;
                           }
                           return out;
                         });

}  // namespace
}  // namespace iofa::agios
