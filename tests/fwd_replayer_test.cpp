// Tests for the workload replayer: phase execution, layouts/offsets,
// volume scaling, flush semantics and measured results.

#include <gtest/gtest.h>

#include "fwd/replayer.hpp"
#include "fwd/service.hpp"
#include "workload/kernels.hpp"

namespace iofa::fwd {
namespace {

using workload::AppSpec;
using workload::FileLayout;
using workload::Operation;
using workload::Spatiality;

ServiceConfig fast_service(bool store_data = true) {
  ServiceConfig cfg;
  cfg.ion_count = 2;
  cfg.pfs.write_bandwidth = 4.0e9;
  cfg.pfs.read_bandwidth = 4.0e9;
  cfg.pfs.op_overhead = 4 * KiB;
  cfg.pfs.contention_coeff = 0.0;
  cfg.pfs.store_data = store_data;
  cfg.ion.ingest_bandwidth = 4.0e9;
  cfg.ion.op_overhead = 4 * KiB;
  cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
  return cfg;
}

AppSpec tiny_app(FileLayout layout, Spatiality spat, int writers = 4,
                 Bytes req = 4096, Bytes total = 64 * 4096) {
  AppSpec app;
  app.label = "tiny";
  app.full_name = "test app";
  app.compute_nodes = 2;
  app.processes = writers;
  workload::IoPhaseSpec wr;
  wr.operation = Operation::Write;
  wr.layout = layout;
  wr.spatiality = spat;
  wr.request_size = req;
  wr.total_bytes = total;
  wr.file_tag = "data";
  app.phases.push_back(wr);
  workload::IoPhaseSpec rd = wr;
  rd.operation = Operation::Read;
  app.phases.push_back(rd);
  return app;
}

ReplayOptions verify_opts() {
  ReplayOptions o;
  o.threads = 4;
  o.volume_scale = 1.0;
  return o;
}

TEST(Replayer, DirectSharedContiguousMovesAllBytes) {
  ForwardingService service(fast_service());
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  const auto app = tiny_app(FileLayout::SharedFile, Spatiality::Contiguous);
  const auto result = replay_app(client, app, verify_opts());
  EXPECT_EQ(result.write_bytes, 64u * 4096u);
  EXPECT_EQ(result.read_bytes, 64u * 4096u);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.bandwidth(), 0.0);
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_EQ(result.phases[0].operation, Operation::Write);
  EXPECT_EQ(result.phases[1].operation, Operation::Read);
}

TEST(Replayer, ForwardedPathDeliversToPfs) {
  ForwardingService service(fast_service());
  core::Mapping m;
  m.epoch = 1;
  m.pool = 2;
  m.jobs[1] = core::Mapping::Entry{"tiny", {0, 1}, false};
  service.apply_mapping(m);
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  const auto app = tiny_app(FileLayout::SharedFile, Spatiality::Contiguous);
  const auto result = replay_app(client, app, verify_opts());
  EXPECT_EQ(result.write_bytes, 64u * 4096u);
  service.drain();
  EXPECT_EQ(service.pfs().bytes_written(), 64u * 4096u);
}

TEST(Replayer, FppCreatesOneFilePerRank) {
  ForwardingService service(fast_service());
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  const auto app =
      tiny_app(FileLayout::FilePerProcess, Spatiality::Contiguous, 4);
  replay_app(client, app, verify_opts());
  service.drain();
  int files = 0;
  for (int r = 0; r < 4; ++r) {
    if (service.pfs()
            .stat("/job-tiny/data.rank" + std::to_string(r))
            .has_value()) {
      ++files;
    }
  }
  EXPECT_EQ(files, 4);
}

TEST(Replayer, SharedFileIsSingleFile) {
  ForwardingService service(fast_service());
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  const auto app = tiny_app(FileLayout::SharedFile, Spatiality::Contiguous);
  replay_app(client, app, verify_opts());
  service.drain();
  EXPECT_TRUE(service.pfs().stat("/job-tiny/data").has_value());
  // The shared file spans the whole phase volume.
  EXPECT_EQ(service.pfs().stat("/job-tiny/data")->size, 64u * 4096u);
}

TEST(Replayer, StridedOffsetsInterleaveRanks) {
  ForwardingService service(fast_service());
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  auto app = tiny_app(FileLayout::SharedFile, Spatiality::Strided1D);
  app.phases.resize(1);  // write only
  replay_app(client, app, verify_opts());
  service.drain();
  // 64 requests of 4096 over 4 ranks strided: file size = 64 * 4096.
  EXPECT_EQ(service.pfs().stat("/job-tiny/data")->size, 64u * 4096u);
}

TEST(Replayer, VolumeScaleShrinksWork) {
  ForwardingService service(fast_service(/*store_data=*/false));
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  auto app = tiny_app(FileLayout::SharedFile, Spatiality::Contiguous, 4,
                      4096, 1024 * 4096);
  app.phases.resize(1);
  ReplayOptions opts;
  opts.threads = 4;
  opts.volume_scale = 1.0 / 16.0;
  const auto result = replay_app(client, app, opts);
  EXPECT_EQ(result.write_bytes, 1024u * 4096u / 16u);
}

TEST(Replayer, FlushAfterForcesPfsDurability) {
  ForwardingService service(fast_service());
  core::Mapping m;
  m.epoch = 1;
  m.pool = 2;
  m.jobs[1] = core::Mapping::Entry{"tiny", {0}, false};
  service.apply_mapping(m);
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  auto app = tiny_app(FileLayout::SharedFile, Spatiality::Contiguous);
  app.phases.resize(1);
  app.phases[0].flush_after = true;
  replay_app(client, app, verify_opts());
  // No drain: flush_after already pushed the bytes to the PFS.
  EXPECT_EQ(service.pfs().bytes_written(), 64u * 4096u);
}

TEST(Replayer, WriterSubsetRestrictsRanks) {
  ForwardingService service(fast_service());
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);
  AppSpec app = tiny_app(FileLayout::FilePerProcess,
                         Spatiality::Contiguous, 8);
  app.phases.resize(1);
  app.phases[0].writers = 2;  // only ranks 0 and 1 write
  replay_app(client, app, verify_opts());
  service.drain();
  EXPECT_TRUE(service.pfs().stat("/job-tiny/data.rank0").has_value());
  EXPECT_TRUE(service.pfs().stat("/job-tiny/data.rank1").has_value());
  EXPECT_FALSE(service.pfs().stat("/job-tiny/data.rank2").has_value());
}

TEST(Replayer, ReadBackMatchesWrittenData) {
  // End-to-end data integrity through write phase + read phase over the
  // forwarding path with fsync in between.
  ForwardingService service(fast_service());
  core::Mapping m;
  m.epoch = 1;
  m.pool = 2;
  m.jobs[1] = core::Mapping::Entry{"tiny", {0, 1}, false};
  service.apply_mapping(m);
  Client client(ClientConfig{1, "tiny", 1.0, 0.0}, service);

  auto app = tiny_app(FileLayout::SharedFile, Spatiality::Contiguous);
  app.phases[0].flush_after = true;
  const auto result = replay_app(client, app, verify_opts());
  EXPECT_EQ(result.read_bytes, 64u * 4096u);
}

TEST(Replayer, PatternReplayRuns) {
  ForwardingService service(fast_service(/*store_data=*/false));
  Client client(ClientConfig{1, "pat", 1.0, 0.0}, service);
  workload::AccessPattern p;
  p.compute_nodes = 2;
  p.processes_per_node = 2;
  p.layout = FileLayout::SharedFile;
  p.spatiality = Spatiality::Contiguous;
  p.request_size = 4096;
  p.total_bytes = 64 * 4096;
  ReplayOptions opts;
  opts.threads = 4;
  const auto result = replay_pattern(client, p, opts, "pat");
  EXPECT_EQ(result.write_bytes, 64u * 4096u);
  EXPECT_EQ(result.app_label, "pat");
}

TEST(Replayer, BandwidthUsesEquation2) {
  ReplayResult r;
  r.write_bytes = 10 * MB;
  r.read_bytes = 10 * MB;
  r.makespan = 2.0;
  EXPECT_DOUBLE_EQ(r.bandwidth(), 10.0);  // (W+R)/runtime in MB/s
}

}  // namespace
}  // namespace iofa::fwd
