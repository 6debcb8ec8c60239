// Dynamic on-demand forwarding: run the paper's 14-job queue (Sec. 5.3)
// on the live GekkoFWD runtime with the MCKP arbiter re-mapping I/O
// nodes as jobs start and finish - a scaled-down Fig. 9.
//
// Usage: ./examples/dynamic_queue [mckp|static|size|one]

#include <iostream>
#include <memory>
#include <string>

#include "common/log.hpp"
#include "common/table.hpp"
#include "core/policies.hpp"
#include "jobs/live_executor.hpp"
#include "platform/profile.hpp"
#include "workload/queuegen.hpp"

int main(int argc, char** argv) {
  using namespace iofa;

  const std::string which = argc > 1 ? argv[1] : "mckp";
  std::shared_ptr<core::ArbitrationPolicy> policy;
  bool realloc = true;
  if (which == "static") {
    policy = std::make_shared<core::StaticPolicy>();
    realloc = false;  // STATIC never remaps running jobs
  } else if (which == "size") {
    policy = std::make_shared<core::SizePolicy>();
  } else if (which == "one") {
    policy = std::make_shared<core::OnePolicy>();
  } else {
    policy = std::make_shared<core::MckpPolicy>();
  }

  set_log_level(LogLevel::Info);  // narrate job starts / mapping epochs

  // Grid'5000-like runtime: 12 IONs, weak HDD Lustre behind them.
  fwd::ServiceConfig cfg;
  cfg.ion_count = 12;
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
  opts.pool = 12;
  opts.static_ratio = 32.0;
  opts.reallocate_running = realloc;
  opts.forbid_direct = true;  // the Fig. 9 platform has no direct path
  opts.threads_per_job = 2;
  opts.poll_period = 0.002;
  opts.replay.volume_scale = 1.0 / 8192.0;

  std::cout << "Running the Section 5.3 queue under " << policy->name()
            << " ...\n\n";
  const auto result =
      jobs::run_queue_live(workload::paper_queue(),
                           platform::g5k_reference_profiles(), policy,
                           service, opts);

  Table table({"job", "app", "MB/s", "started_s", "finished_s"});
  for (const auto& job : result.jobs) {
    table.add_row({std::to_string(job.id), job.label,
                   fmt(job.replay.bandwidth(), 1), fmt(job.started, 2),
                   fmt(job.finished, 2)});
  }
  table.print(std::cout);
  std::cout << "\naggregate bandwidth (Equation 2): "
            << fmt(result.aggregate_bw(), 1) << " MB/s, makespan "
            << fmt(result.makespan, 2) << " s\n";
  std::cout << "(volumes are scaled 1/8192 so the run finishes in "
               "seconds; compare policies by re-running with "
               "./dynamic_queue static)\n";
  return 0;
}
