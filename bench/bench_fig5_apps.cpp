// Fig. 5 (+ Table 3): client-side bandwidth of the nine application
// kernels with 0/1/2/4/8 exclusively-assigned IONs, measured LIVE on the
// GekkoFWD runtime (real threads, real queues, emulated Lustre).
//
// Volumes are scaled down (1/16384) so the whole sweep runs in seconds;
// bandwidths are therefore comparable in *shape*, not magnitude, to the
// paper's (fixed per-run overheads weigh more at this scale). The
// reference column shows the curve pinned to the paper's reported
// values, which also drives the policy benches.

#include <iostream>

#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "fwd/replayer.hpp"
#include "fwd/service.hpp"
#include "platform/profile.hpp"
#include "workload/kernels.hpp"

namespace {

iofa::fwd::ServiceConfig g5k_like(int ions) {
  iofa::fwd::ServiceConfig cfg;
  cfg.ion_count = std::max(1, ions);
  cfg.pfs.write_bandwidth = 900.0e6;
  cfg.pfs.read_bandwidth = 1400.0e6;
  cfg.pfs.op_overhead = 128 * iofa::KiB;
  cfg.pfs.contention_coeff = 0.02;
  cfg.pfs.store_data = false;
  cfg.ion.ingest_bandwidth = 650.0e6;
  cfg.ion.op_overhead = 32 * iofa::KiB;
  cfg.ion.scheduler.kind = iofa::agios::SchedulerKind::TimeWindowAggregation;
  cfg.ion.scheduler.aggregation_window = 0.0005;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iofa;
  const auto telemetry_out = bench::telemetry_init(argc, argv);
  bench::banner("Figure 5 / Table 3", "IPDPS'21 Sec. 5.1",
                "Live bandwidth (MB/s) of the nine kernels vs exclusive "
                "ION count (volumes scaled 1/1024, 64 MiB phase floor)");

  const auto reference = platform::g5k_reference_profiles();

  Table table({"app", "ions", "measured_MB/s", "reference_MB/s",
               "fwd_ops", "makespan_s"});

  for (const auto& app : workload::table3_applications()) {
    for (int ions : {0, 1, 2, 4, 8}) {
      fwd::ForwardingService service(g5k_like(ions));

      core::Mapping mapping;
      mapping.epoch = 1;
      mapping.pool = service.ion_count();
      core::Mapping::Entry entry;
      entry.app_label = app.label;
      for (int i = 0; i < ions; ++i) entry.ions.push_back(i);
      mapping.jobs[1] = entry;
      service.apply_mapping(mapping);

      fwd::ClientConfig cc;
      cc.job = 1;
      cc.app_label = app.label;
      cc.stream_weight = static_cast<double>(app.processes) / 4.0;
      cc.poll_period = 0.0;
      fwd::Client client(cc, service);

      fwd::ReplayOptions opts;
      opts.threads = 4;
      opts.volume_scale = 1.0 / 1024.0;
      opts.min_phase_bytes = 64 * MiB;
      const auto result = replay_app(client, app, opts);
      service.drain();

      table.add_row({app.label, std::to_string(ions),
                     fmt(result.bandwidth(), 1),
                     fmt(reference.at(app.label).at(ions), 1),
                     std::to_string(client.forwarded_ops()),
                     fmt(result.makespan, 3)});
    }
  }
  table.print(std::cout);
  std::cout << "\npaper shapes: IOR/POSIX/HACC scale with IONs; MAD and "
               "S3D are best served\nby direct access; BT flattens after "
               "1-2 IONs. No single count fits all.\n";
  bench::telemetry_finish(telemetry_out);
  return 0;
}
