// Fig. 9: the live dynamic experiment of Section 5.3. The 14-job FIFO
// queue (HACC, IOR-MPI, SIM, IOR-MPI, IOR-MPI, POSIX-S, POSIX-L, BT-C,
// MAD, MAD, S3D, HACC, HACC, BT-D) runs on 96 modelled compute nodes
// with 12 IONs and no direct PFS path, under ONE / STATIC / SIZE / MCKP.
// MCKP re-arbitrates on every job start/finish; STATIC never remaps
// running jobs.
//
// Paper headline: MCKP improves aggregate bandwidth by ~1.9x over STATIC
// ("up to 85%" per-application improvements in the live setup).

#include <iostream>
#include <map>
#include <memory>

#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "core/policies.hpp"
#include "jobs/live_executor.hpp"
#include "platform/profile.hpp"
#include "workload/queuegen.hpp"

namespace {

iofa::jobs::LiveRunResult run_policy(
    std::shared_ptr<iofa::core::ArbitrationPolicy> policy, bool realloc) {
  using namespace iofa;
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
  opts.forbid_direct = true;  // Fig. 9: "we do not consider directly
                              // accessing the PFS for this test"
  opts.threads_per_job = 2;
  opts.poll_period = 0.005;   // scaled analogue of the 10 s poll
  opts.replay.volume_scale = 1.0 / 2048.0;
  opts.replay.min_phase_bytes = 16 * MiB;

  return run_queue_live(workload::paper_queue(),
                        platform::g5k_reference_profiles(),
                        std::move(policy), service, opts);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iofa;
  const auto telemetry_out = bench::telemetry_init(argc, argv);
  bench::banner("Figure 9", "IPDPS'21 Sec. 5.3",
                "Dynamic arbitration of the 14-job queue on the live "
                "runtime (volumes scaled 1/2048, 16 MiB phase floor)");

  struct Run {
    std::string name;
    jobs::LiveRunResult result;
  };
  std::vector<Run> runs;
  runs.push_back({"ONE", run_policy(std::make_shared<core::OnePolicy>(),
                                    true)});
  runs.push_back({"STATIC",
                  run_policy(std::make_shared<core::StaticPolicy>(),
                             false)});
  runs.push_back({"SIZE", run_policy(std::make_shared<core::SizePolicy>(),
                                     true)});
  runs.push_back({"MCKP", run_policy(std::make_shared<core::MckpPolicy>(),
                                     true)});

  // Per-application bandwidth under each policy (jobs aggregated by
  // label, as Fig. 9's stacked bars do).
  Table table({"policy", "app", "jobs", "mean_MB/s", "aggregate_MB/s"});
  for (const auto& run : runs) {
    std::map<std::string, std::pair<int, double>> by_app;
    for (const auto& job : run.result.jobs) {
      auto& slot = by_app[job.label];
      slot.first += 1;
      slot.second += job.replay.bandwidth();
    }
    for (const auto& [label, slot] : by_app) {
      table.add_row({run.name, label, std::to_string(slot.first),
                     fmt(slot.second / slot.first, 1),
                     fmt(slot.second, 1)});
    }
  }
  table.print(std::cout);

  std::cout << "\npolicy aggregates (Equation 2):\n";
  double st_bw = 0.0, mckp_bw = 0.0;
  for (const auto& run : runs) {
    const double bw = run.result.aggregate_bw();
    std::cout << "  " << run.name << ": " << fmt(bw, 1)
              << " MB/s (makespan " << fmt(run.result.makespan, 2)
              << " s)\n";
    if (run.name == "STATIC") st_bw = bw;
    if (run.name == "MCKP") mckp_bw = bw;
  }
  std::cout << "\nMCKP / STATIC = " << fmt(mckp_bw / st_bw, 2)
            << "x  (paper: 1.9x - 8.41 GB/s -> 16.02 GB/s)\n";
  bench::telemetry_finish(telemetry_out);
  return 0;
}
