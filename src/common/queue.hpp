#pragma once
// Bounded multi-producer / multi-consumer queue with close semantics.
//
// This is the transport between GekkoFWD client shims and ION daemons:
// it plays the role Mercury RPC plays in the real GekkoFS deployment
// (in-process, since our cluster is emulated inside one address space).
//
// All state is guarded by one mutex; wait loops re-check their
// predicate explicitly after every wakeup (spurious-wakeup safe) and
// the lock discipline is enforced at compile time by the IOFA_STRICT
// clang build (see common/annotations.hpp).
//
// Consumer wakeups: a push wakes a sleeping consumer only when it makes
// the queue non-empty, and a pop that leaves items behind wakes the
// next sleeper. A consumer that is already awake takes what arrives
// while it works, so a queue shared by several consumers (the ION's
// flusher pool) pays a wakeup per backlog step instead of one per
// item, and a backlog still fans out to every sleeping consumer.

#include <chrono>
#include <cstddef>
#include <deque>
#include "common/clock.hpp"
#include <optional>
#include <utility>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace iofa {

/// Outcome of a timed pop. A timeout is NOT the same as a closed
/// queue: kTimeout means the deadline passed with the queue still open
/// and empty, kClosed that it is closed and drained, so no item will
/// ever come. A consumer whose own work has a ready time (the ION
/// worker's scheduler) waits with that deadline and, on kClosed, still
/// owes what it holds.
enum class PopResult { kItem, kTimeout, kClosed };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false if the queue was closed.
  bool push(T item) IOFA_EXCLUDES(mu_) {
    bool wake = false;
    {
      UniqueLock lk(mu_);
      while (!closed_ && full_locked()) not_full_.wait(lk);
      if (closed_) return false;
      wake = push_locked(std::move(item));
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed.
  bool try_push(T item) IOFA_EXCLUDES(mu_) {
    bool wake = false;
    {
      MutexLock lk(mu_);
      if (closed_ || full_locked()) return false;
      wake = push_locked(std::move(item));
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Hold one slot for a later push_reserved(), blocking while full.
  /// Returns false (nothing held) once closed.
  bool reserve() IOFA_EXCLUDES(mu_) {
    UniqueLock lk(mu_);
    while (!closed_ && full_locked()) not_full_.wait(lk);
    if (closed_) return false;
    ++reserved_;
    return true;
  }

  /// Non-blocking reserve(): false when full or closed.
  bool try_reserve() IOFA_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (closed_ || full_locked()) return false;
    ++reserved_;
    return true;
  }

  /// Push into a slot held by reserve()/try_reserve(); never blocks.
  /// The slot is used up either way; returns false if the queue was
  /// closed meanwhile.
  bool push_reserved(T item) IOFA_EXCLUDES(mu_) {
    bool wake = false;
    {
      MutexLock lk(mu_);
      --reserved_;
      if (closed_) return false;
      wake = push_locked(std::move(item));
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Give back a slot held by reserve()/try_reserve() without pushing.
  void cancel_reservation() IOFA_EXCLUDES(mu_) {
    {
      MutexLock lk(mu_);
      --reserved_;
    }
    not_full_.notify_one();
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> pop() IOFA_EXCLUDES(mu_) {
    std::optional<T> out;
    bool wake = false;
    {
      UniqueLock lk(mu_);
      while (!closed_ && items_.empty()) {
        ++sleepers_;
        not_empty_.wait(lk);
        --sleepers_;
      }
      if (items_.empty()) return std::nullopt;
      wake = pop_locked(out);
    }
    notify_after_pop(wake);
    return out;
  }

  /// Pop, waiting while the queue is open and empty until `deadline`
  /// (a deadline already past does not wait), and report WHY nothing was
  /// popped: kTimeout (still open) vs kClosed (closed and drained).
  /// Spurious wakeups re-enter the wait against the same deadline.
  PopResult pop_until(MonotonicClock::time_point deadline, T& out)
      IOFA_EXCLUDES(mu_) {
    std::optional<T> popped;
    bool wake = false;
    {
      UniqueLock lk(mu_);
      while (!closed_ && items_.empty()) {
        if (iofa::monotonic_now() >= deadline) return PopResult::kTimeout;
        ++sleepers_;
        not_empty_.wait_until(lk, deadline);
        --sleepers_;
      }
      if (items_.empty()) return PopResult::kClosed;
      wake = pop_locked(popped);
    }
    out = std::move(*popped);
    notify_after_pop(wake);
    return PopResult::kItem;
  }

  /// Non-blocking conditional pop: takes the front item only when
  /// `pred(front)` holds (a flusher grows its run with this, taking the
  /// head only while it extends the run).
  template <typename Pred>
  std::optional<T> try_pop_if(Pred&& pred) IOFA_EXCLUDES(mu_) {
    std::optional<T> out;
    bool wake = false;
    {
      MutexLock lk(mu_);
      if (items_.empty() || !pred(static_cast<const T&>(items_.front()))) {
        return std::nullopt;
      }
      wake = pop_locked(out);
    }
    notify_after_pop(wake);
    return out;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() IOFA_EXCLUDES(mu_) {
    std::optional<T> out;
    bool wake = false;
    {
      MutexLock lk(mu_);
      if (items_.empty()) return std::nullopt;
      wake = pop_locked(out);
    }
    notify_after_pop(wake);
    return out;
  }

  /// After close(): pushes fail, pops drain the remaining items then
  /// return nullopt.
  void close() IOFA_EXCLUDES(mu_) {
    {
      MutexLock lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const IOFA_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return closed_;
  }

  std::size_t size() const IOFA_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return items_.size();
  }

  bool empty() const IOFA_EXCLUDES(mu_) { return size() == 0; }

 private:
  bool full_locked() const IOFA_REQUIRES(mu_) {
    return items_.size() + reserved_ >= capacity_;
  }

  /// Append; true when a sleeping consumer must be woken (the queue was
  /// empty, so no consumer already awake is bound to see the item).
  bool push_locked(T&& item) IOFA_REQUIRES(mu_) {
    const bool wake = items_.empty() && sleepers_ > 0;
    items_.push_back(std::move(item));
    return wake;
  }

  /// Move the front into `out`; true when items remain for a sleeping
  /// consumer to take.
  bool pop_locked(std::optional<T>& out) IOFA_REQUIRES(mu_) {
    out.emplace(std::move(items_.front()));
    items_.pop_front();
    return !items_.empty() && sleepers_ > 0;
  }

  void notify_after_pop(bool wake_next) {
    if (wake_next) not_empty_.notify_one();
    not_full_.notify_one();
  }

  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ IOFA_GUARDED_BY(mu_);
  bool closed_ IOFA_GUARDED_BY(mu_) = false;
  /// Consumers blocked in pop() / pop_until().
  int sleepers_ IOFA_GUARDED_BY(mu_) = 0;
  /// Slots held by reserve()/try_reserve() and not yet pushed.
  std::size_t reserved_ IOFA_GUARDED_BY(mu_) = 0;
};

}  // namespace iofa
