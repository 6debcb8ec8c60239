#pragma once
// The wait slot a blocking caller parks on: the continuation
// (request.hpp) the client shim and the tests hand to a daemon.

#include <memory>
#include <optional>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"
#include "fwd/request.hpp"

namespace iofa::fwd {

/// The blocking caller's continuation. A caller that times out just
/// drops its reference; the late completion lands in the orphaned slot.
class WaitSlot final : public CompletionSink {
 public:
  void complete(Completion c) override IOFA_EXCLUDES(mu_);
  /// Block until completed.
  Completion wait() IOFA_EXCLUDES(mu_);
  /// nullopt when not completed within `timeout`, or when nudged.
  std::optional<Completion> wait_for(Seconds timeout) IOFA_EXCLUDES(mu_);
  /// End the current (or next) wait_for() without completing the slot.
  void nudge() IOFA_EXCLUDES(mu_);

 private:
  Mutex mu_;
  CondVar cv_;
  bool done_ IOFA_GUARDED_BY(mu_) = false;
  bool nudged_ IOFA_GUARDED_BY(mu_) = false;
  Completion result_ IOFA_GUARDED_BY(mu_);
};

/// Give `req` a fresh WaitSlot as its continuation and return the slot.
inline std::shared_ptr<WaitSlot> wait_on(FwdRequest& req) {
  auto slot = std::make_shared<WaitSlot>();
  req.done = slot;
  return slot;
}

}  // namespace iofa::fwd
