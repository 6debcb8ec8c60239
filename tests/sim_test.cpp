// Tests for the discrete-event engine and its modelled resources.

#include <gtest/gtest.h>

#include <vector>

#include "sim/resources.hpp"
#include "sim/simulator.hpp"

namespace iofa::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(1.0, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  sim.cancel(id);
  sim.cancel(id);
  sim.cancel(9999);  // unknown id: no-op
  sim.run();
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(1.0, recurse);
  };
  sim.schedule(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilAdvancesClockToBound) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(5.0, [&] { ++count; });
  sim.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

// -------------------------------------------------------- SharedBandwidth
TEST(SharedBandwidth, SingleFlowFullRate) {
  Simulator sim;
  SharedBandwidth link(sim, 100.0);
  Seconds done = 0.0;
  link.start_flow(200, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 2.0, 1e-9);
}

TEST(SharedBandwidth, TwoFlowsShareEqually) {
  Simulator sim;
  SharedBandwidth link(sim, 100.0);
  Seconds d1 = 0.0, d2 = 0.0;
  link.start_flow(100, [&] { d1 = sim.now(); });
  link.start_flow(100, [&] { d2 = sim.now(); });
  sim.run();
  // Both flows drain at 50 B/s concurrently.
  EXPECT_NEAR(d1, 2.0, 1e-9);
  EXPECT_NEAR(d2, 2.0, 1e-9);
}

TEST(SharedBandwidth, ShortFlowFinishesFirstThenLongSpeedsUp) {
  Simulator sim;
  SharedBandwidth link(sim, 100.0);
  Seconds d_short = 0.0, d_long = 0.0;
  link.start_flow(50, [&] { d_short = sim.now(); });
  link.start_flow(150, [&] { d_long = sim.now(); });
  sim.run();
  // Shared at 50 B/s until t=1 (short done: 50 B each); long has 100 B
  // left, now at 100 B/s -> finishes at t=2.
  EXPECT_NEAR(d_short, 1.0, 1e-9);
  EXPECT_NEAR(d_long, 2.0, 1e-9);
}

TEST(SharedBandwidth, LateArrivalSharesRemainder) {
  Simulator sim;
  SharedBandwidth link(sim, 100.0);
  Seconds d1 = 0.0, d2 = 0.0;
  link.start_flow(100, [&] { d1 = sim.now(); });
  sim.schedule(0.5, [&] { link.start_flow(100, [&] { d2 = sim.now(); }); });
  sim.run();
  // Flow 1: 50 B alone, then shares; 50 B left at 50 B/s -> t=1.5.
  EXPECT_NEAR(d1, 1.5, 1e-9);
  // Flow 2: 50 B at 50 B/s (until t=1.5), then 50 B at 100 B/s -> t=2.0.
  EXPECT_NEAR(d2, 2.0, 1e-9);
}

TEST(SharedBandwidth, EfficiencyDegradesAggregate) {
  Simulator sim;
  // Two flows: aggregate halves (eta = 0.5), so each runs at 25 B/s.
  SharedBandwidth link(sim, 100.0, [](std::size_t n) {
    return n > 1 ? 0.5 : 1.0;
  });
  Seconds d = 0.0;
  link.start_flow(50, [&] { d = sim.now(); });
  link.start_flow(50, [&] {});
  sim.run();
  EXPECT_NEAR(d, 2.0, 1e-9);
}

TEST(SharedBandwidth, AbortReturnsRemainingBytes) {
  Simulator sim;
  SharedBandwidth link(sim, 100.0);
  bool completed = false;
  const FlowId id = link.start_flow(1000, [&] { completed = true; });
  sim.schedule(1.0, [&] {
    auto remaining = link.abort_flow(id);
    ASSERT_TRUE(remaining.has_value());
    EXPECT_NEAR(static_cast<double>(*remaining), 900.0, 1.0);
  });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(SharedBandwidth, AbortUnknownFlowIsNullopt) {
  Simulator sim;
  SharedBandwidth link(sim, 100.0);
  EXPECT_FALSE(link.abort_flow(42).has_value());
}

TEST(SharedBandwidth, ManyFlowsConserveTotalTime) {
  Simulator sim;
  SharedBandwidth link(sim, 1000.0);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    link.start_flow(100, [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 10);
  // 1000 bytes total at 1000 B/s = 1 s regardless of sharing.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

}  // namespace
}  // namespace iofa::sim
