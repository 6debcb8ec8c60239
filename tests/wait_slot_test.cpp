// The WaitSlot continuation: bounded waits and late completions.

#include "fwd/wait_slot.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

namespace {

using iofa::fwd::Completion;
using iofa::fwd::CompletionStatus;
using iofa::fwd::WaitSlot;

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
