#pragma once
// One process-wide monotonic clock shared by the logger and the
// telemetry tracer, so log lines and trace events sit on the same
// timeline and interleave readably.

#include <chrono>
#include <cstdint>

namespace iofa {

/// The project's clock type for deadline/time_point arithmetic. Code
/// that needs a std::chrono time_point (condition-variable waits,
/// deadline bookkeeping) names this alias and obtains the value from
/// monotonic_now(); the clock-hygiene lint rule rejects direct
/// std::chrono::steady_clock / system_clock reads elsewhere, so every
/// timing decision in the process flows through this one read site.
using MonotonicClock = std::chrono::steady_clock;

/// The current instant on the process-wide monotonic timeline.
MonotonicClock::time_point monotonic_now();

/// The instant `seconds` from now, for condition-variable deadlines.
/// Saturates at MonotonicClock::time_point::max() when the sum would
/// not fit (an infinite, NaN or ~1e10 s timeout waits forever instead
/// of wrapping into the past); a non-positive timeout is now.
MonotonicClock::time_point deadline_after(double seconds);

/// Microseconds since the process clock epoch (first use), monotonic.
std::uint64_t monotonic_micros();

/// Seconds since the process clock epoch, monotonic.
double monotonic_seconds();

/// Sleep the calling thread for `s` seconds (no-op when s <= 0).
/// The project's single blessed sleep: tools/iofa_lint rejects raw
/// std::this_thread::sleep_for / usleep / nanosleep outside this
/// module, so pacing code stays greppable and mockable in one place.
void sleep_for_seconds(double s);

}  // namespace iofa
