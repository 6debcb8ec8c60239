#pragma once
// Bounded MPSC completion ring for the ION daemon, and the wait slot a
// blocking caller parks on.
//
// Running a request's continuation (request.hpp) inline would gate a
// worker's dispatch cadence on a client's wakeup or an RPC response
// send. The ring decouples the two: producers (dispatch workers,
// flushers) push small completion records lock-free, and one drainer
// thread per daemon runs the continuations in batches.
//
// The slot protocol is the classic bounded-MPMC sequence scheme
// (Vyukov), restricted here to many producers / one consumer: each
// slot carries an atomic sequence number; a producer CASes the tail to
// claim a slot and publishes by storing seq = pos + 1; the consumer
// reads slots in order and recycles them by storing seq = pos + cap.
// Push never blocks: when the ring is momentarily full the caller runs
// the continuation inline (counted), trading one slow ack for a
// never-stalling hot path.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"
#include "fwd/request.hpp"

namespace iofa::fwd {

/// One completion travelling from a pipeline thread to the drainer.
struct CompletionRecord {
  /// Continuation to run; never null inside the ring (requests without
  /// one settle immediately).
  std::shared_ptr<CompletionSink> done;
  Completion result;
};

/// The blocking caller's continuation. A caller that times out just
/// drops its reference; the late completion lands in the orphaned slot.
class WaitSlot final : public CompletionSink {
 public:
  void complete(Completion c) override IOFA_EXCLUDES(mu_);
  /// Block until completed.
  Completion wait() IOFA_EXCLUDES(mu_);
  /// nullopt when not completed within `timeout`.
  std::optional<Completion> wait_for(Seconds timeout) IOFA_EXCLUDES(mu_);

 private:
  Mutex mu_;
  CondVar cv_;
  bool done_ IOFA_GUARDED_BY(mu_) = false;
  Completion result_ IOFA_GUARDED_BY(mu_);
};

/// Give `req` a fresh WaitSlot as its continuation and return the slot.
inline std::shared_ptr<WaitSlot> wait_on(FwdRequest& req) {
  auto slot = std::make_shared<WaitSlot>();
  req.done = slot;
  return slot;
}

class CompletionRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit CompletionRing(std::size_t capacity);
  ~CompletionRing();

  CompletionRing(const CompletionRing&) = delete;
  CompletionRing& operator=(const CompletionRing&) = delete;

  /// Lock-free multi-producer push. On success `rec` is moved into the
  /// ring; on a full ring it is left intact and false is returned (the
  /// caller completes inline). Pushing after close() is allowed — the
  /// drainer keeps draining until the ring is closed AND empty, so
  /// nothing pushed before the producers stop is ever lost.
  bool try_push(CompletionRecord& rec);

  /// Single-consumer batch pop: moves up to `max` records into `out`
  /// (appending) and returns how many. Never blocks.
  std::size_t drain(std::vector<CompletionRecord>& out, std::size_t max);

  /// Park until a record is pushed, the ring closes, or `max_wait_s`
  /// elapses. Single consumer only. Returns immediately when a record
  /// is already visible.
  void wait_nonempty(double max_wait_s) IOFA_EXCLUDES(wake_mu_);

  void close() IOFA_EXCLUDES(wake_mu_);
  bool is_closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t capacity() const { return mask_ + 1; }
  /// Records pushed inline-fallback side because the ring was full.
  std::uint64_t full_rejections() const { return full_.load(); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    CompletionRecord rec;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  /// Producer cursor (claimed via CAS) and consumer cursor (single
  /// thread; atomic only so capacity checks in try_push stay defined).
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> full_{0};

  /// Drainer parking: producers take the mutex only when the consumer
  /// has advertised it is parked, so the push fast path stays lock-free
  /// under load. The mutex guards no data - it only orders the parked_
  /// re-check against notify so the drainer's wakeup cannot be lost.
  std::atomic<bool> parked_{false};
  Mutex wake_mu_;  // iofa-lint: allow(naked-mutex)
  CondVar wake_cv_;
};

}  // namespace iofa::fwd
