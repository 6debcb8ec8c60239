#include "fwd/wait_slot.hpp"

#include "common/clock.hpp"

namespace iofa::fwd {

void WaitSlot::complete(Completion c) {
  MutexLock lk(mu_);
  result_ = c;
  done_ = true;
  cv_.notify_all();
}

Completion WaitSlot::wait() {
  UniqueLock lk(mu_);
  while (!done_) cv_.wait(lk);
  return result_;
}

std::optional<Completion> WaitSlot::wait_for(Seconds timeout) {
  const auto deadline = deadline_after(timeout);
  UniqueLock lk(mu_);
  while (!done_ && !nudged_) {
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
  }
  nudged_ = false;
  return done_ ? std::optional<Completion>(result_) : std::nullopt;
}

void WaitSlot::nudge() {
  MutexLock lk(mu_);
  nudged_ = true;
  cv_.notify_all();
}

}  // namespace iofa::fwd
