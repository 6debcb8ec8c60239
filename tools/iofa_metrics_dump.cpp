// iofa_metrics_dump: exercise the live forwarding runtime briefly and
// dump every telemetry metric it produced.
//
// Runs a short dynamic queue (first N jobs of the Section 5.3 mix) on
// the live runtime with span tracing enabled, then prints the metrics
// snapshot as a human table. With --out it additionally writes the
// machine-readable exports next to each other:
//   <prefix>.metrics.csv   flat CSV of the snapshot
//   <prefix>.metrics.json  snapshot with histogram buckets
//   <prefix>.trace.json    chrome://tracing / Perfetto trace
//
// Usage:
//   iofa_metrics_dump [--jobs N] [--policy mckp|static|size|one]
//                     [--out PREFIX] [--csv]
//     --jobs N      jobs to take from the paper queue (default 6)
//     --policy P    arbitration policy for the run (default mckp)
//     --out PREFIX  write metrics.csv/metrics.json/trace.json files
//     --csv         print CSV instead of the table

#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/policies.hpp"
#include "jobs/live_executor.hpp"
#include "platform/profile.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/queuegen.hpp"

namespace {

using namespace iofa;

std::shared_ptr<core::ArbitrationPolicy> make_policy(
    const std::string& name) {
  if (name == "static") return std::make_shared<core::StaticPolicy>();
  if (name == "size") return std::make_shared<core::SizePolicy>();
  if (name == "one") return std::make_shared<core::OnePolicy>();
  return std::make_shared<core::MckpPolicy>();
}

/// A scaled-down Fig. 9 setup: enough traffic to populate every metric
/// family without taking more than a second or two.
jobs::LiveRunResult run_sample(std::size_t n_jobs,
                               const std::string& policy) {
  fwd::ServiceConfig cfg;
  cfg.ion_count = 4;
  cfg.pfs.write_bandwidth = 900.0e6;
  cfg.pfs.read_bandwidth = 1400.0e6;
  cfg.pfs.op_overhead = 128 * KiB;
  cfg.pfs.contention_coeff = 0.02;
  cfg.pfs.store_data = false;
  cfg.ion.ingest_bandwidth = 650.0e6;
  cfg.ion.op_overhead = 32 * KiB;
  fwd::ForwardingService service(cfg);

  jobs::LiveExecutorOptions opts;
  opts.compute_nodes = 96;
  opts.pool = 4;
  opts.static_ratio = 32.0;
  opts.reallocate_running = policy != "static";
  opts.forbid_direct = true;
  opts.threads_per_job = 2;
  opts.poll_period = 0.002;
  opts.replay.volume_scale = 1.0 / 8192.0;
  opts.replay.min_phase_bytes = 4 * MiB;

  auto queue = workload::paper_queue();
  if (queue.size() > n_jobs) queue.resize(n_jobs);
  return run_queue_live(queue, platform::g5k_reference_profiles(),
                        make_policy(policy), service, opts);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_jobs = 6;
  std::string policy = "mckp";
  std::optional<std::string> out;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (!parse_number(v, n_jobs) || n_jobs == 0) {
        std::cerr << "iofa_metrics_dump: --jobs wants a whole number >= 1, "
                     "got '" << v << "'\n";
        return 2;
      }
    } else if (arg == "--policy" && i + 1 < argc) {
      policy = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--csv") {
      csv = true;
    } else {
      std::cerr << "usage: iofa_metrics_dump [--jobs N] [--policy P] "
                   "[--out PREFIX] [--csv]\n";
      return 2;
    }
  }

  telemetry::Tracer::global().set_enabled(true);
  const auto result = run_sample(n_jobs, policy);

  const auto snap = telemetry::Registry::global().snapshot();
  auto table = telemetry::to_table(snap);
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << "telemetry snapshot after " << result.jobs.size()
              << " jobs under " << policy << " ("
              << snap.samples.size() << " metrics, aggregate "
              << result.aggregate_bw() << " MB/s):\n\n";
    table.print(std::cout);
  }

  if (out) {
    try {
      const auto paths = telemetry::dump_all(*out);
      std::cerr << "wrote " << paths.metrics_csv << ", "
                << paths.metrics_json << ", " << paths.trace_json << "\n";
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
