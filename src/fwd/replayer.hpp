#pragma once
// FORGE-style workload replay against the live forwarding runtime: run an
// application kernel (Table 3) or a raw access pattern through a client
// shim with real threads, and measure the achieved bandwidth at the
// client side (the makespan measurement the paper uses).

#include <string>
#include <vector>

#include "common/units.hpp"
#include "fwd/client.hpp"
#include "workload/kernels.hpp"

namespace iofa::fwd {

struct ReplayOptions {
  /// Client threads standing in for the app's processes. Each thread
  /// carries processes/threads logical ranks (its stream weight).
  int threads = 8;
  /// All phase volumes are multiplied by this (big paper volumes shrink
  /// to bench-sized runs; bandwidth ratios are preserved).
  double volume_scale = 1.0;
  /// Floor for a scaled phase (never exceeds the original volume): keeps
  /// small applications out of the fixed-overhead regime.
  Bytes min_phase_bytes = 0;
  std::uint64_t seed = 42;  ///< payload generation seed
};

struct PhaseResult {
  workload::Operation operation;
  Bytes bytes = 0;
  Seconds elapsed = 0.0;
  MBps bandwidth = 0.0;
};

struct ReplayResult {
  std::string app_label;
  std::vector<PhaseResult> phases;
  Bytes write_bytes = 0;
  Bytes read_bytes = 0;
  Seconds makespan = 0.0;  ///< I/O phases only: compute gaps are skipped

  /// Equation 2 contribution: (W + R) / runtime.
  MBps bandwidth() const;
};

/// Replay one application through `client`. Blocking; uses real threads.
ReplayResult replay_app(Client& client, const workload::AppSpec& app,
                        const ReplayOptions& options);

/// Replay a single raw pattern (the FORGE motivation tool).
ReplayResult replay_pattern(Client& client,
                            const workload::AccessPattern& pattern,
                            const ReplayOptions& options,
                            const std::string& label = "pattern");

}  // namespace iofa::fwd
