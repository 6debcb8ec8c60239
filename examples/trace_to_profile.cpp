// From traces to MCKP inputs: run an application on the runtime with
// tracing enabled, classify its Darshan-like trace into an access
// pattern, and estimate its bandwidth-vs-ION curve with the platform
// model - the paper's pipeline for obtaining MCKP items without
// profiling every application at every ION count.
//
// Usage: ./examples/trace_to_profile [APP]   (default: IOR-MPI)

#include <iostream>
#include <memory>

#include "common/table.hpp"
#include "fwd/replayer.hpp"
#include "fwd/service.hpp"
#include "platform/perf_model.hpp"
#include "platform/profile.hpp"
#include "trace/analyzer.hpp"
#include "workload/kernels.hpp"

int main(int argc, char** argv) {
  using namespace iofa;

  const std::string label = argc > 1 ? argv[1] : "IOR-MPI";
  workload::AppSpec app;
  try {
    app = workload::application(label);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  std::cout << "Application: " << app.full_name << " (" << app.label
            << "), " << app.compute_nodes << " nodes, " << app.processes
            << " processes\n";

  // 1. Run it (scaled down) with tracing on.
  fwd::ServiceConfig cfg;
  cfg.ion_count = 4;
  cfg.pfs.store_data = false;
  fwd::ForwardingService service(cfg);
  fwd::ClientConfig cc;
  cc.job = 1;
  cc.app_label = app.label;
  fwd::Client client(cc, service);
  auto log = std::make_shared<trace::TraceLog>(app.label);
  client.set_trace(log);

  fwd::ReplayOptions opts;
  opts.threads = 4;
  opts.volume_scale = 1.0 / 4096.0;
  replay_app(client, app, opts);
  service.drain();
  std::cout << "Trace: " << log->size() << " records, "
            << fmt_bytes(static_cast<double>(log->bytes_written()))
            << " written, "
            << fmt_bytes(static_cast<double>(log->bytes_read()))
            << " read\n\n";

  // 2. Classify.
  const auto est =
      trace::classify(log->snapshot(), app.compute_nodes, app.processes);
  if (!est) {
    std::cerr << "no data operations in trace\n";
    return 1;
  }
  std::cout << "Detected pattern: " << est->pattern.to_string()
            << "\n(spatiality confidence " << fmt(est->spatiality_confidence, 2)
            << ", " << est->data_ops << " data ops)\n\n";

  // 3. Estimate the bandwidth curve for the arbiter.
  platform::PerfModel model(platform::g5k_params());
  const auto curve = trace::estimate_curve(
      log->snapshot(), app.compute_nodes, app.processes, model,
      platform::default_ion_options());

  Table table({"io_nodes", "estimated_MB/s"});
  for (int k : curve.options()) {
    table.add_row({std::to_string(k), fmt(curve.at(k), 1)});
  }
  table.print(std::cout);
  std::cout << "\nbest option: " << curve.best_option()
            << " IONs -> these points become this app's MCKP items\n";
  return 0;
}
