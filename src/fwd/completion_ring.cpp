#include "fwd/completion_ring.hpp"

#include <chrono>

#include "common/clock.hpp"

namespace iofa::fwd {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

CompletionRing::CompletionRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity);
  mask_ = cap - 1;
  slots_ = std::vector<Slot>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    slots_[i].seq.store(i, std::memory_order_relaxed);
  }
}

CompletionRing::~CompletionRing() = default;

bool CompletionRing::try_push(CompletionRecord& rec) {
  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  Slot* slot = nullptr;
  for (;;) {
    slot = &slots_[pos & mask_];
    const std::uint64_t seq = slot->seq.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        break;
      }
    } else if (dif < 0) {
      // The consumer has not recycled this slot yet: full.
      full_.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
  slot->rec = std::move(rec);
  slot->seq.store(pos + 1, std::memory_order_release);
  // Wake the drainer only when it advertised it is parked; under load
  // this branch never takes the mutex. The drainer re-checks the ring
  // after setting parked_, so a push landing in the gap is still seen.
  if (parked_.load(std::memory_order_acquire)) {
    MutexLock lk(wake_mu_);
    wake_cv_.notify_one();
  }
  return true;
}

std::size_t CompletionRing::drain(std::vector<CompletionRecord>& out,
                                  std::size_t max) {
  std::size_t n = 0;
  std::uint64_t pos = head_.load(std::memory_order_relaxed);
  while (n < max) {
    Slot& slot = slots_[pos & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(pos + 1) < 0) {
      break;  // next slot not published yet
    }
    out.push_back(std::move(slot.rec));
    slot.rec = CompletionRecord();
    slot.seq.store(pos + mask_ + 1, std::memory_order_release);
    ++pos;
    ++n;
  }
  head_.store(pos, std::memory_order_relaxed);
  return n;
}

void CompletionRing::wait_nonempty(double max_wait_s) {
  const std::uint64_t pos = head_.load(std::memory_order_relaxed);
  auto published = [&] {
    const std::uint64_t seq =
        slots_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<std::int64_t>(seq) -
               static_cast<std::int64_t>(pos + 1) >= 0;
  };
  if (published() || is_closed()) return;
  parked_.store(true, std::memory_order_release);
  const auto deadline =
      monotonic_now() + std::chrono::duration_cast<MonotonicClock::duration>(
                            std::chrono::duration<double>(max_wait_s));
  {
    UniqueLock lk(wake_mu_);
    while (!published() && !is_closed()) {
      if (wake_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }
  parked_.store(false, std::memory_order_release);
}

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
  const auto deadline =
      monotonic_now() + std::chrono::duration_cast<MonotonicClock::duration>(
                            std::chrono::duration<double>(timeout));
  UniqueLock lk(mu_);
  while (!done_) {
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
  }
  return done_ ? std::optional<Completion>(result_) : std::nullopt;
}

void CompletionRing::close() {
  closed_.store(true, std::memory_order_release);
  MutexLock lk(wake_mu_);
  wake_cv_.notify_all();
}

}  // namespace iofa::fwd
