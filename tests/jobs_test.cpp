// Tests for the queue executors: FIFO admission, dynamic re-arbitration,
// Equation 2 accounting - on the DES path and on the live runtime.

#include <gtest/gtest.h>

#include <set>

#include "core/policies.hpp"
#include "jobs/live_executor.hpp"
#include "jobs/sim_executor.hpp"
#include "platform/profile.hpp"
#include "workload/queuegen.hpp"

namespace iofa::jobs {
namespace {

platform::ProfileDB tiny_profiles() {
  platform::ProfileDB db;
  // Two synthetic apps: "fast" loves IONs, "flat" prefers direct access.
  // Concave curve: diminishing returns, so MCKP prefers splitting the
  // pool between two instances over starving one of them.
  db.insert("fast", platform::BandwidthCurve({{0, 50.0},
                                              {1, 400.0},
                                              {2, 700.0},
                                              {4, 1000.0},
                                              {8, 1200.0}}));
  db.insert("flat", platform::BandwidthCurve({{0, 300.0},
                                              {1, 100.0},
                                              {2, 120.0},
                                              {4, 140.0},
                                              {8, 150.0}}));
  return db;
}

workload::AppSpec synth_app(const std::string& label, int nodes,
                            Bytes volume) {
  workload::AppSpec app;
  app.label = label;
  app.full_name = label;
  app.compute_nodes = nodes;
  app.processes = nodes * 4;
  workload::IoPhaseSpec ph;
  ph.operation = workload::Operation::Write;
  ph.layout = workload::FileLayout::SharedFile;
  ph.spatiality = workload::Spatiality::Contiguous;
  ph.request_size = 64 * KiB;
  ph.total_bytes = volume;
  ph.file_tag = "data";
  app.phases.push_back(ph);
  return app;
}

SimExecutorOptions sim_opts(int nodes = 64, int pool = 8) {
  SimExecutorOptions o;
  o.compute_nodes = nodes;
  o.pool = pool;
  o.static_ratio = 8.0;
  return o;
}

// --------------------------------------------------------- sim executor
TEST(SimExecutor, SingleJobGetsBestAllocation) {
  const std::vector<workload::AppSpec> queue{
      synth_app("fast", 16, 1200 * MB)};
  const auto result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(),
      sim_opts());
  ASSERT_EQ(result.jobs.size(), 1u);
  // "fast" at 8 IONs runs at 1200 MB/s: 1200 MB in ~1 s.
  EXPECT_NEAR(result.jobs[0].achieved_bw, 1200.0, 1.0);
  EXPECT_NEAR(result.makespan, 1.0, 0.01);
}

TEST(SimExecutor, FlatAppPrefersDirect) {
  const std::vector<workload::AppSpec> queue{
      synth_app("flat", 16, 300 * MB)};
  const auto result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(),
      sim_opts());
  EXPECT_NEAR(result.jobs[0].achieved_bw, 300.0, 1.0);
}

TEST(SimExecutor, FifoAdmissionBlocksOnNodes) {
  // Two 48-node jobs on a 64-node cluster: strictly sequential.
  const std::vector<workload::AppSpec> queue{
      synth_app("fast", 48, 1200 * MB), synth_app("fast", 48, 1200 * MB)};
  const auto result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(),
      sim_opts());
  ASSERT_EQ(result.jobs.size(), 2u);
  // The second job starts only after the first finishes.
  EXPECT_GE(result.jobs[1].started, result.jobs[0].finished - 1e-9);
  EXPECT_NEAR(result.makespan, 2.0, 0.05);
}

TEST(SimExecutor, ConcurrentJobsShareThePool) {
  // Two "fast" jobs fit side by side; 8 IONs must be split 4/4.
  const std::vector<workload::AppSpec> queue{
      synth_app("fast", 16, 800 * MB), synth_app("fast", 16, 800 * MB)};
  const auto result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(),
      sim_opts());
  ASSERT_EQ(result.jobs.size(), 2u);
  for (const auto& job : result.jobs) {
    // 800 MB at 1000 MB/s (4 IONs each) = 0.8 s.
    EXPECT_NEAR(job.achieved_bw, 1000.0, 10.0);
  }
}

TEST(SimExecutor, DynamicReallocationOnCompletion) {
  // Job 1 is long; job 2 is short. After job 2 finishes, job 1 should be
  // upgraded from 4 to 8 IONs - visible in its ION time share.
  const std::vector<workload::AppSpec> queue{
      synth_app("fast", 16, 3200 * MB), synth_app("fast", 16, 400 * MB)};
  const auto result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(),
      sim_opts());
  ASSERT_EQ(result.jobs.size(), 2u);
  const auto& long_job =
      result.jobs[0].bytes > result.jobs[1].bytes ? result.jobs[0]
                                                  : result.jobs[1];
  EXPECT_GT(long_job.ion_time_share.count(4), 0u);
  EXPECT_GT(long_job.ion_time_share.count(8), 0u);
  // Achieved bandwidth lies strictly between the 4- and 8-ION rates.
  EXPECT_GT(long_job.achieved_bw, 1000.0);
  EXPECT_LT(long_job.achieved_bw, 1200.0);
}

TEST(SimExecutor, StaticNeverReallocatesRunning) {
  auto opts = sim_opts();
  opts.reallocate_running = false;
  const std::vector<workload::AppSpec> queue{
      synth_app("fast", 16, 3200 * MB), synth_app("fast", 16, 400 * MB)};
  const auto result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::StaticPolicy>(), opts);
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.ion_time_share.size(), 1u) << job.label;
  }
}

TEST(SimExecutor, RemapDelayPostponesUpgrade) {
  auto delayed = sim_opts();
  delayed.remap_delay = 0.5;
  const std::vector<workload::AppSpec> queue{
      synth_app("fast", 16, 3200 * MB), synth_app("fast", 16, 400 * MB)};
  const auto fast_result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(),
      sim_opts());
  const auto slow_result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(), delayed);
  EXPECT_GE(slow_result.makespan, fast_result.makespan - 1e-9);
}

TEST(SimExecutor, AggregateBwSumsJobs) {
  const std::vector<workload::AppSpec> queue{
      synth_app("fast", 16, 800 * MB), synth_app("flat", 16, 300 * MB)};
  const auto result = run_queue_simulation(
      queue, tiny_profiles(), std::make_shared<core::MckpPolicy>(),
      sim_opts());
  double expected = 0.0;
  for (const auto& job : result.jobs) expected += job.achieved_bw;
  EXPECT_NEAR(result.aggregate_bw(), expected, 1e-9);
}

TEST(SimExecutor, MckpBeatsStaticOnPaperQueue) {
  // The Section 5.3 headline on the DES substrate: MCKP's aggregate
  // bandwidth beats STATIC's on the paper queue.
  const auto queue = workload::paper_queue();
  const auto profiles = platform::g5k_reference_profiles();
  SimExecutorOptions opts;
  opts.compute_nodes = 96;
  opts.pool = 12;
  opts.static_ratio = 32.0;

  auto mckp = run_queue_simulation(queue, profiles,
                                   std::make_shared<core::MckpPolicy>(),
                                   opts);
  auto opts_static = opts;
  opts_static.reallocate_running = false;
  auto st = run_queue_simulation(queue, profiles,
                                 std::make_shared<core::StaticPolicy>(),
                                 opts_static);
  ASSERT_EQ(mckp.jobs.size(), queue.size());
  ASSERT_EQ(st.jobs.size(), queue.size());
  EXPECT_GT(mckp.aggregate_bw(), 1.2 * st.aggregate_bw());
}

// -------------------------------------------------------- live executor
TEST(LiveExecutor, SmallQueueRunsToCompletion) {
  fwd::ServiceConfig cfg;
  cfg.ion_count = 4;
  cfg.pfs.write_bandwidth = 2.0e9;
  cfg.pfs.read_bandwidth = 2.0e9;
  cfg.pfs.op_overhead = 16 * KiB;
  cfg.pfs.store_data = false;
  cfg.ion.ingest_bandwidth = 2.0e9;
  cfg.ion.op_overhead = 16 * KiB;
  fwd::ForwardingService service(cfg);

  std::vector<workload::AppSpec> queue{
      synth_app("fast", 16, 8 * MiB), synth_app("flat", 16, 8 * MiB),
      synth_app("fast", 32, 8 * MiB)};

  LiveExecutorOptions opts;
  opts.compute_nodes = 48;
  opts.pool = 4;
  opts.static_ratio = 16.0;
  opts.threads_per_job = 2;
  opts.replay.threads = 2;

  const auto result =
      run_queue_live(queue, tiny_profiles(),
                     std::make_shared<core::MckpPolicy>(), service, opts);
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.replay.write_bytes, 8 * MiB) << job.label;
    EXPECT_GT(job.replay.bandwidth(), 0.0);
  }
  EXPECT_GT(result.aggregate_bw(), 0.0);
  EXPECT_EQ(service.pfs().bytes_written(), 3u * 8u * MiB);
}

TEST(LiveExecutor, ForbidDirectStripsZeroOption) {
  fwd::ServiceConfig cfg;
  cfg.ion_count = 2;
  cfg.pfs.store_data = false;
  fwd::ForwardingService service(cfg);

  std::vector<workload::AppSpec> queue{synth_app("flat", 8, 4 * MiB)};
  LiveExecutorOptions opts;
  opts.compute_nodes = 16;
  opts.pool = 2;
  opts.forbid_direct = true;
  opts.threads_per_job = 2;

  const auto result =
      run_queue_live(queue, tiny_profiles(),
                     std::make_shared<core::MckpPolicy>(), service, opts);
  ASSERT_EQ(result.jobs.size(), 1u);
  // "flat" prefers 0 IONs, but direct access is forbidden: all its bytes
  // must have flowed through the forwarding layer.
  Bytes through_ions = 0;
  for (int d = 0; d < service.ion_count(); ++d) {
    through_ions += service.daemon(d).stats().bytes_in;
  }
  EXPECT_EQ(through_ions, 4 * MiB);
}

}  // namespace
}  // namespace iofa::jobs
