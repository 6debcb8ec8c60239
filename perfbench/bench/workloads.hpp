#pragma once
// The two seeded benchmark workloads. Each runs closed-loop from one
// load-generating thread in its own process, and each of them
// exercises the whole stack - a job lifecycle through the MCKP
// arbiter and the mapping plane, and verified I/O through the client -
// in very different proportions:
//
//   sync-small-tcp      1 rank, 16 KiB write+read pairs over loopback
//                       TCP to 1 ION (FIFO, caps raised); the job is
//                       restarted every 16 pairs.
//   job-churn           ~256 running jobs over 12 IONs; alternating job
//                       finish (oldest first) and start events re-solve
//                       MCKP and republish; every 8th event one mapped
//                       job does a verified 16 KiB write/fsync/read.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/spans.hpp"

namespace perfbench {

/// A throughput measured in windows. The reported rate is the median
/// window, so a stall that hits a few windows does not move it.
struct WindowedRate {
  std::vector<double> windows;  ///< amount per second, one per window
  double amount = 0.0;          ///< in the open window
  double seconds = 0.0;
  double total_amount = 0.0;
  double total_seconds = 0.0;

  void add(double a, double s) {
    amount += a;
    seconds += s;
    total_amount += a;
    total_seconds += s;
  }
  void close() {
    if (seconds > 0.0) windows.push_back(amount / seconds);
    amount = 0.0;
    seconds = 0.0;
  }
  double median() const { return percentile(windows, 0.5).value; }
  double mean() const { return ratio(total_amount, total_seconds); }
};

/// What one measured phase observed.
struct Samples {
  std::vector<double> write_us;  ///< per Client::pwrite call
  std::vector<double> read_us;   ///< per Client::pread call
  std::vector<double> fsync_us;  ///< per Client::fsync call
  std::vector<double> remap_us;  ///< job event -> view on the new epoch
  std::vector<double> fresh_solve_us;  ///< fresh MckpPolicy solves
  WindowedRate write_MBps;  ///< MB written per second writing, fsync included
  WindowedRate read_MBps;   ///< MB read per second reading
  WindowedRate events_per_s;  ///< events per second spent in job events
  std::uint64_t events = 0;
  double predicted_sum = 0.0;  ///< Eq. 2 MB/s summed over events
  double wall_s = 0.0;
  /// Benchmark-side work inside the phase (filling and verifying
  /// buffers, reference solves), left out of the closed-loop ops/s.
  double overhead_s = 0.0;
  std::uint64_t data_ops = 0;  ///< pwrite + pread calls
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  double busy_s() const { return wall_s - overhead_s; }

  /// One job event that took `seconds`; events_per_s closes a window
  /// every kEventWindow events.
  void count_event(double seconds) {
    ++events;
    events_per_s.add(1.0, seconds);
    if (events % kEventWindow == 0) events_per_s.close();
  }
  static constexpr std::uint64_t kEventWindow = 4;
};

/// The inputs a workload hands to the traced run's one-layer-down
/// probes, so they replay the workload's own shapes.
struct ProbeShape {
  std::uint64_t op_bytes = 0;     ///< bytes per pwrite/pread call
  std::uint64_t file_bytes = 0;   ///< offsets fall in [0, file_bytes)
  int ions = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the deployment and run its first operations: the timed
  /// set-up.
  virtual void setup() = 0;
  /// Untimed warm-up after set-up: on return the next call may be timed.
  virtual void warm_up() = 0;
  /// Closed-loop measured phase of `seconds`; spans go to `rec` when
  /// it is non-null.
  virtual void run(double seconds, Samples& out, SpanRecorder* rec) = 0;
  /// ForwardingService::drain, under a span when `rec` is non-null.
  virtual void drain(SpanRecorder* rec) = 0;
  virtual ProbeShape shape() const = 0;
  /// Cores the run is pinned to (0 = every core; see pin_to).
  virtual int cores() const = 0;
};

/// The last `n` cores the process could run on when this was first
/// called; empty when it has fewer.
std::vector<int> last_cores(int n);

/// Restrict the calling thread, and every thread it creates afterwards,
/// to `cpus`. On a shared virtual machine each cross-core wakeup waits
/// for the hypervisor to schedule the target vCPU, and under host load
/// that wait swamps the software cost under test. A workload with one
/// operation in flight loses nothing on one core. Returns false when the
/// affinity call fails (the run goes on unpinned).
bool pin_to(const std::vector<int>& cpus);

/// Workload names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Probe results of the traced run (each a p50 over the probe's own
/// samples, or a rate).
struct ProbeResults {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double tcp_rtt_us = 0.0;
  double inproc_write_us = 0.0;
  double inproc_read_us = 0.0;
  double pfs_write_MBps = 0.0;
  std::uint64_t failed = 0;
};

ProbeResults run_probes(const ProbeShape& shape, std::uint64_t seed);

}  // namespace perfbench
