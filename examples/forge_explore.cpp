// FORGE-style exploration: replay a synthetic access pattern on the live
// GekkoFWD runtime under different numbers of I/O nodes and print the
// measured bandwidth curve - the experiment behind Fig. 1 of the paper.
//
// Usage: ./examples/forge_explore [shared|fpp] [contig|strided] [reqKiB]
// Defaults: shared contig 256 KiB.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/arbiter.hpp"
#include "fwd/replayer.hpp"
#include "fwd/service.hpp"
#include "workload/pattern.hpp"

int main(int argc, char** argv) {
  using namespace iofa;

  workload::AccessPattern pattern;
  pattern.compute_nodes = 4;
  pattern.processes_per_node = 8;
  pattern.layout = (argc > 1 && std::string(argv[1]) == "fpp")
                       ? workload::FileLayout::FilePerProcess
                       : workload::FileLayout::SharedFile;
  pattern.spatiality = (argc > 2 && std::string(argv[2]) == "strided")
                           ? workload::Spatiality::Strided1D
                           : workload::Spatiality::Contiguous;
  const Bytes req_kib = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 256;
  pattern.request_size = req_kib * KiB;
  pattern.total_bytes = 64 * MiB;

  std::cout << "FORGE exploration of: " << pattern.to_string() << "\n\n";

  Table table({"io_nodes", "bandwidth_MB/s", "forwarded_ops",
               "direct_ops"});

  for (int ions : {0, 1, 2, 4, 8}) {
    // A fresh runtime per configuration: a Grid'5000-like small Lustre
    // with cache-assisted IONs.
    fwd::ServiceConfig cfg;
    cfg.ion_count = std::max(1, ions);
    cfg.pfs.write_bandwidth = 900.0e6;
    cfg.pfs.read_bandwidth = 1400.0e6;
    cfg.pfs.op_overhead = 128 * KiB;
    cfg.pfs.contention_coeff = 0.02;
    cfg.pfs.store_data = false;
    cfg.ion.ingest_bandwidth = 650.0e6;
    cfg.ion.op_overhead = 32 * KiB;
    fwd::ForwardingService service(cfg);

    // Publish the mapping for this configuration (empty = direct).
    core::Mapping mapping;
    mapping.epoch = 1;
    mapping.pool = cfg.ion_count;
    core::Mapping::Entry entry;
    entry.app_label = "forge";
    for (int i = 0; i < ions; ++i) entry.ions.push_back(i);
    mapping.jobs[1] = entry;
    service.apply_mapping(mapping);

    fwd::ClientConfig cc;
    cc.job = 1;
    cc.app_label = "forge";
    cc.stream_weight = static_cast<double>(pattern.processes()) / 8.0;
    cc.poll_period = 0.0;
    fwd::Client client(cc, service);

    fwd::ReplayOptions opts;
    opts.threads = 8;
    const auto result = fwd::replay_pattern(client, pattern, opts, "forge");
    service.drain();

    table.add_row({std::to_string(ions),
                   fmt(result.bandwidth(), 1),
                   std::to_string(client.forwarded_ops()),
                   std::to_string(client.direct_ops())});
  }

  table.print(std::cout);
  std::cout << "\n(0 IONs = direct PFS access; forwarding pays off or "
               "not depending on the pattern, as in Fig. 1)\n";
  return 0;
}
