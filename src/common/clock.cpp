#include "common/clock.hpp"

#include <chrono>
#include <thread>

namespace iofa {

namespace {
std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}
// Pin the epoch as early as static initialisation allows, so early
// log lines do not all read 0.
const auto g_epoch_pin = process_epoch();
}  // namespace

MonotonicClock::time_point monotonic_now() {
  return std::chrono::steady_clock::now();
}

MonotonicClock::time_point deadline_after(double seconds) {
  const auto now = monotonic_now();
  if (seconds <= 0.0) return now;
  // One second of slack absorbs the double rounding near the limit.
  const double headroom =
      std::chrono::duration<double>(MonotonicClock::time_point::max() - now)
          .count() -
      1.0;
  if (!(seconds < headroom)) return MonotonicClock::time_point::max();
  return now + std::chrono::duration_cast<MonotonicClock::duration>(
                   std::chrono::duration<double>(seconds));
}

std::uint64_t monotonic_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

double monotonic_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_epoch())
      .count();
}

void sleep_for_seconds(double s) {
  if (s <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace iofa
