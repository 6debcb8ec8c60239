// Ablation: write-behind staging vs write-through forwarding. GekkoFWD
// inherits GekkoFS's burst-buffer staging (acks once staged on the ION,
// flushes asynchronously); a plain forwarding layer acknowledges only
// after the PFS write. This bench measures what the staging buys for a
// bursty checkpoint workload on a slow PFS, and what it costs when the
// application fsyncs every phase anyway.

#include <iostream>

#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "fwd/replayer.hpp"
#include "fwd/service.hpp"
#include "workload/pattern.hpp"

namespace {

iofa::fwd::ServiceConfig make_config(bool write_through) {
  iofa::fwd::ServiceConfig cfg;
  cfg.ion_count = 2;
  cfg.pfs.write_bandwidth = 200.0e6;  // deliberately slow backend
  cfg.pfs.op_overhead = 128 * iofa::KiB;
  cfg.pfs.contention_coeff = 0.01;
  cfg.pfs.store_data = false;
  cfg.ion.ingest_bandwidth = 900.0e6;
  cfg.ion.op_overhead = 16 * iofa::KiB;
  cfg.ion.write_through = write_through;
  return cfg;
}

}  // namespace

int main() {
  using namespace iofa;
  bench::banner("Ablation: write-behind vs write-through",
                "DESIGN.md Sec. 4",
                "Bursty writes through 2 IONs onto a slow PFS");

  Table table({"mode", "fsync_each_phase", "bandwidth_MB/s",
               "makespan_s"});

  for (bool write_through : {false, true}) {
    for (bool fsync : {false, true}) {
      fwd::ForwardingService service(make_config(write_through));
      core::Mapping m;
      m.epoch = 1;
      m.pool = 2;
      m.jobs[1] = core::Mapping::Entry{"burst", {0, 1}, false};
      service.apply_mapping(m);

      fwd::ClientConfig cc;
      cc.job = 1;
      cc.app_label = "burst";
      cc.stream_weight = 4.0;
      cc.poll_period = 0.0;
      fwd::Client client(cc, service);

      workload::AppSpec app;
      app.label = "burst";
      app.compute_nodes = 4;
      app.processes = 16;
      for (int phase = 0; phase < 4; ++phase) {
        workload::IoPhaseSpec ph;
        ph.operation = workload::Operation::Write;
        ph.layout = workload::FileLayout::FilePerProcess;
        ph.spatiality = workload::Spatiality::Contiguous;
        ph.request_size = 1 * MiB;
        ph.total_bytes = 32 * MiB;
        ph.file_tag = "ckpt" + std::to_string(phase);
        ph.flush_after = fsync;
        app.phases.push_back(ph);
      }

      fwd::ReplayOptions opts;
      opts.threads = 8;
      const auto result = replay_app(client, app, opts);
      service.drain();

      table.add_row({write_through ? "write-through" : "write-behind",
                     fsync ? "yes" : "no", fmt(result.bandwidth(), 1),
                     fmt(result.makespan, 3)});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpectation: write-behind absorbs the burst at ION "
               "ingest speed when the app does\nnot fsync (the "
               "burst-buffer effect); with per-phase fsync both modes "
               "converge to\nthe PFS drain rate.\n";
  return 0;
}
