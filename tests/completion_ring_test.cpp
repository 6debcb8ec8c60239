// CompletionRing unit + stress tests: capacity rounding, FIFO order
// across wrap-around, full-ring rejection leaving the record intact,
// drain-after-close losing nothing (the crash-restart property: every
// record pushed before the producers stop is fulfilled), and a
// multi-producer stress run the thread-sanitize CI job runs under TSan.
// Also the WaitSlot continuation: bounded waits and late completions.

#include "fwd/completion_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

namespace {

using iofa::fwd::Completion;
using iofa::fwd::CompletionRecord;
using iofa::fwd::CompletionRing;
using iofa::fwd::CompletionStatus;
using iofa::fwd::WaitSlot;

CompletionRecord make_rec(std::size_t value) {
  CompletionRecord rec;
  rec.done = std::make_shared<WaitSlot>();
  rec.result.value = value;
  return rec;
}

TEST(CompletionRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(CompletionRing(0).capacity(), 8u);
  EXPECT_EQ(CompletionRing(8).capacity(), 8u);
  EXPECT_EQ(CompletionRing(9).capacity(), 16u);
  EXPECT_EQ(CompletionRing(4096).capacity(), 4096u);
}

TEST(CompletionRingTest, FifoAcrossWrapAround) {
  CompletionRing ring(8);
  std::vector<CompletionRecord> out;
  std::size_t next_pushed = 0, next_drained = 0;
  // Prime a 2-record residue, then push 5 / drain 5 per round: the
  // residue persists and straddles the wrap point of the 8-slot ring
  // many times over.
  for (int i = 0; i < 2; ++i) {
    CompletionRecord rec = make_rec(next_pushed);
    ASSERT_TRUE(ring.try_push(rec));
    ++next_pushed;
  }
  for (int round = 0; round < 64; ++round) {
    for (int i = 0; i < 5; ++i) {
      CompletionRecord rec = make_rec(next_pushed);
      ASSERT_TRUE(ring.try_push(rec)) << "round " << round;
      ++next_pushed;
    }
    out.clear();
    EXPECT_EQ(ring.drain(out, 5), 5u);
    for (const auto& rec : out) {
      EXPECT_EQ(rec.result.value, next_drained) << "order broken at wrap";
      ++next_drained;
    }
  }
  out.clear();
  while (ring.drain(out, 16) > 0) {
    for (const auto& rec : out) EXPECT_EQ(rec.result.value, next_drained++);
    out.clear();
  }
  EXPECT_EQ(next_drained, next_pushed);
}

TEST(CompletionRingTest, FullRingRejectsAndLeavesRecordIntact) {
  CompletionRing ring(8);
  for (std::size_t i = 0; i < ring.capacity(); ++i) {
    CompletionRecord rec = make_rec(i);
    ASSERT_TRUE(ring.try_push(rec));
    EXPECT_EQ(rec.done, nullptr) << "push must move the record in";
  }
  auto slot = std::make_shared<WaitSlot>();
  CompletionRecord spill = make_rec(99);
  spill.done = slot;
  EXPECT_FALSE(ring.try_push(spill));
  EXPECT_EQ(ring.full_rejections(), 1u);
  // The caller completes inline on rejection: the continuation must
  // survive.
  ASSERT_EQ(spill.done, slot);
  EXPECT_EQ(spill.result.value, 99u);
  spill.done->complete(spill.result);
  EXPECT_EQ(slot->wait().value, 99u);
  // Draining one slot makes the next push succeed again.
  std::vector<CompletionRecord> out;
  EXPECT_EQ(ring.drain(out, 1), 1u);
  CompletionRecord retry = make_rec(100);
  EXPECT_TRUE(ring.try_push(retry));
}

TEST(CompletionRingTest, DrainAfterCloseLosesNothing) {
  CompletionRing ring(16);
  for (std::size_t i = 0; i < 10; ++i) {
    CompletionRecord rec = make_rec(i);
    ASSERT_TRUE(ring.try_push(rec));
  }
  ring.close();
  EXPECT_TRUE(ring.is_closed());
  // Pushing after close is still allowed (producers may race shutdown).
  CompletionRecord late = make_rec(10);
  EXPECT_TRUE(ring.try_push(late));
  std::vector<CompletionRecord> out;
  while (ring.drain(out, 4) > 0) {
  }
  ASSERT_EQ(out.size(), 11u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].result.value, i);
    ASSERT_NE(out[i].done, nullptr);
  }
  // Closed + empty: wait_nonempty returns immediately instead of
  // sleeping out its timeout.
  ring.wait_nonempty(30.0);
}

TEST(CompletionRingTest, WaitNonemptyWakesOnPush) {
  CompletionRing ring(8);
  std::thread producer([&ring] {
    CompletionRecord rec = make_rec(7);
    ASSERT_TRUE(ring.try_push(rec));
  });
  // Generous timeout: the test only passes quickly when the push wake
  // actually works; a lost wakeup would eat the full 30s and time out
  // the suite.
  ring.wait_nonempty(30.0);
  std::vector<CompletionRecord> out;
  EXPECT_EQ(ring.drain(out, 8), 1u);
  EXPECT_EQ(out[0].result.value, 7u);
  producer.join();
}

// Crash-restart drill: producers push a known population, the "daemon"
// closes the ring mid-stream (shutdown), and a drainer that keeps
// draining until closed-and-empty must account for every record whose
// push succeeded — nothing is lost or duplicated across the close edge.
TEST(CompletionRingStressTest, MultiProducerCloseMidStreamLosesNothing) {
  constexpr int kProducers = 4;
  constexpr std::size_t kPerProducer = 5000;
  CompletionRing ring(64);
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        CompletionRecord rec =
            make_rec(static_cast<std::size_t>(p) * kPerProducer + i);
        if (ring.try_push(rec)) {
          pushed.fetch_add(1);
        } else {
          // Inline-fallback path: record intact, caller settles it.
          ASSERT_NE(rec.done, nullptr);
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::set<std::size_t> seen;
  std::vector<CompletionRecord> out;
  std::thread drainer([&] {
    while (true) {
      out.clear();
      if (ring.drain(out, 32) == 0) {
        if (ring.is_closed()) {
          // Closed is not drained: one final sweep below the break
          // would still be covered by the loop re-checking drain first.
          if (ring.drain(out, 32) == 0) break;
        } else {
          ring.wait_nonempty(0.01);
          continue;
        }
      }
      for (auto& rec : out) {
        ASSERT_NE(rec.done, nullptr);
        EXPECT_TRUE(seen.insert(rec.result.value).second) << "duplicate record";
      }
    }
  });
  for (auto& t : producers) t.join();
  ring.close();
  drainer.join();
  EXPECT_EQ(seen.size(), pushed.load());
  EXPECT_EQ(pushed.load() + rejected.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(ring.full_rejections(), rejected.load());
}

TEST(WaitSlotTest, CompletionBeforeWaitIsKept) {
  WaitSlot slot;
  slot.complete({CompletionStatus::kOk, 42});
  const Completion c = slot.wait();
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.value, 42u);
  ASSERT_TRUE(slot.wait_for(0.0).has_value());
  EXPECT_EQ(slot.wait_for(0.0)->value, 42u);
}

TEST(WaitSlotTest, FailureIsAStatusNotAnException) {
  WaitSlot slot;
  slot.complete({CompletionStatus::kIonDown, 0});
  EXPECT_EQ(slot.wait().status, CompletionStatus::kIonDown);
  EXPECT_FALSE(slot.wait().ok());
}

TEST(WaitSlotTest, TimedOutCallerToleratesLateCompletion) {
  auto slot = std::make_shared<WaitSlot>();
  std::shared_ptr<iofa::fwd::CompletionSink> held = slot;  // the daemon's
  EXPECT_FALSE(slot->wait_for(1e-3).has_value());
  slot.reset();  // the caller gives up and drops its reference
  held->complete({CompletionStatus::kOk, 7});  // late: lands harmlessly
  held.reset();
}

TEST(WaitSlotTest, WaitWakesOnCompletionFromAnotherThread) {
  auto slot = std::make_shared<WaitSlot>();
  std::thread producer([slot] { slot->complete({CompletionStatus::kOk, 9}); });
  // Generous bound: only a lost wakeup would use it up.
  const auto c = slot->wait_for(30.0);
  producer.join();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->value, 9u);
}

}  // namespace
