// Tests for the client shim and mapping distribution: routing (direct vs
// forwarded), path-hash ION selection, mapping polls and runtime remap.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/arbiter.hpp"
#include "fault/injector.hpp"
#include "fwd/client.hpp"
#include "fwd/mapping.hpp"
#include "fwd/rpc_endpoints.hpp"
#include "fwd/service.hpp"
#include "gkfs/chunk.hpp"
#include "platform/perf_model.hpp"
#include "platform/profile.hpp"
#include "rpc/tcp_transport.hpp"
#include "rpc/transport.hpp"
#include "telemetry/metrics.hpp"
#include "workload/pattern.hpp"

namespace iofa::fwd {
namespace {

std::vector<std::byte> pattern_data(std::size_t n, std::uint64_t seed) {
  iofa::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

ServiceConfig fast_service(int ions = 4) {
  ServiceConfig cfg;
  cfg.ion_count = ions;
  cfg.pfs.write_bandwidth = 4.0e9;
  cfg.pfs.read_bandwidth = 4.0e9;
  cfg.pfs.op_overhead = 4 * KiB;
  cfg.pfs.contention_coeff = 0.0;
  cfg.ion.ingest_bandwidth = 4.0e9;
  cfg.ion.op_overhead = 4 * KiB;
  cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
  return cfg;
}

core::Mapping mapping_for(core::JobId job, std::vector<int> ions,
                          std::uint64_t epoch = 1, int pool = 4) {
  core::Mapping m;
  m.epoch = epoch;
  m.pool = pool;
  m.jobs[job] = core::Mapping::Entry{"app", std::move(ions), false};
  return m;
}

ClientConfig client_cfg(core::JobId job, Seconds poll = 0.0) {
  ClientConfig cc;
  cc.job = job;
  cc.app_label = "app";
  cc.poll_period = poll;  // 0: poll on every operation
  return cc;
}

// -------------------------------------------------------- MappingStore
TEST(MappingStoreTest, PublishAndLookup) {
  MappingStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_FALSE(store.snapshot(1).found);
  store.publish(mapping_for(1, {0, 2}, 5));
  EXPECT_EQ(store.epoch(), 5u);
  const auto snap = store.snapshot(1);
  ASSERT_TRUE(snap.found);
  EXPECT_EQ(snap.ions, (std::vector<int>{0, 2}));
  EXPECT_EQ(snap.epoch, 5u);
}

/// A publisher alternates mappings whose entry for the job holds the
/// epoch's parity; every fetch, direct or over the RPC mapping server,
/// must return an ION list and an epoch from the same publish.
void expect_untorn_fetches(MappingStore& store, MappingPort& port) {
  constexpr core::JobId kJob = 7;
  store.publish(mapping_for(kJob, {1}, 1));
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (std::uint64_t epoch = 2; !stop.load(std::memory_order_relaxed);
         ++epoch) {
      auto m = mapping_for(kJob, {static_cast<int>(epoch % 2)}, epoch);
      // A second entry that never changes, so each publish patches one
      // entry of two and must leave the other in place.
      m.jobs[kJob + 1] = core::Mapping::Entry{"other", {2, 3}, false};
      store.publish(std::move(m));
    }
  });
  // Count, do not assert, inside the loop: the publisher must be joined.
  int torn = 0;
  std::uint64_t epochs_seen = 0;
  std::uint64_t last_epoch = 0;
  // At least 20k fetches spanning 50 publishes; the cap only bounds a
  // starved publisher thread.
  for (int i = 0; i < 20'000'000 && (i < 20'000 || epochs_seen < 50); ++i) {
    const auto snap = port.fetch(kJob);
    if (!snap || !snap->found ||
        snap->ions != std::vector<int>{static_cast<int>(snap->epoch % 2)}) {
      ++torn;
      continue;
    }
    if (snap->epoch != last_epoch) ++epochs_seen;
    last_epoch = snap->epoch;
  }
  stop.store(true);
  publisher.join();
  EXPECT_EQ(torn, 0) << "fetches pairing one publish's IONs with another's "
                        "epoch";
  EXPECT_GE(epochs_seen, 50u) << "the publisher barely overlapped the fetches";
}

TEST(MappingStoreTest, DirectFetchNeverPairsIonsWithAnotherEpoch) {
  MappingStore store;
  DirectMappingPort port(store);
  expect_untorn_fetches(store, port);
}

TEST(MappingStoreTest, RpcFetchNeverPairsIonsWithAnotherEpoch) {
  MappingStore store;
  rpc::LoopbackTransport link;
  const rpc::RpcOptions options;
  RpcMappingServer server(link, store);
  RpcMappingClient client(link, options);
  expect_untorn_fetches(store, client);
}

// The same drill over a real TCP link, with the publishes crossing it
// too: a publisher thread and three fetchers share one RpcMappingClient,
// so the waiting callers take turns reading the link for each other.
// Nothing tears and, with an ack window far longer than any round trip,
// nothing is resent either.
TEST(MappingStoreTest, TcpFetchSharingTheLinkWithPublishesNeverTears) {
  telemetry::Registry reg;
  MappingStore store;
  rpc::TcpTransport link;
  rpc::RpcOptions options;
  options.ack_timeout = 5.0;
  RpcMappingServer server(link, store, &reg);
  RpcMappingClient client(link, options, &reg);
  constexpr core::JobId kJob = 7;
  ASSERT_TRUE(client.publish(mapping_for(kJob, {1}, 1)));
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (std::uint64_t epoch = 2; !stop.load(std::memory_order_relaxed);
         ++epoch) {
      auto m = mapping_for(kJob, {static_cast<int>(epoch % 2)}, epoch);
      m.jobs[kJob + 1] = core::Mapping::Entry{"other", {2, 3}, false};
      client.publish(m);
    }
  });
  constexpr int kFetchers = 3;
  std::atomic<int> torn{0};
  std::atomic<std::uint64_t> epochs_seen{0};
  std::vector<std::thread> fetchers;
  for (int f = 0; f < kFetchers; ++f) {
    fetchers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      // At least 2000 fetches each, spanning 50 epochs between them;
      // the cap only bounds a starved publisher.
      for (int i = 0; i < 200'000 && (i < 2'000 || epochs_seen.load() < 50);
           ++i) {
        const auto snap = client.fetch(kJob);
        if (!snap || !snap->found ||
            snap->ions != std::vector<int>{static_cast<int>(snap->epoch % 2)}) {
          torn.fetch_add(1);
          continue;
        }
        if (snap->epoch != last_epoch) epochs_seen.fetch_add(1);
        last_epoch = snap->epoch;
      }
    });
  }
  for (auto& f : fetchers) f.join();
  stop.store(true);
  publisher.join();
  link.close();  // joins the server's reader before the endpoints go
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GE(epochs_seen.load(), 50u);
  EXPECT_EQ(reg.counter("rpc.retries", {{"link", "mapping"}}).value(), 0u);
}

TEST(MappingStoreTest, RpcPublishCarriesEveryLabel) {
  MappingStore store;
  rpc::LoopbackTransport link;
  const rpc::RpcOptions options;
  RpcMappingServer server(link, store);
  RpcMappingClient client(link, options);
  auto m = mapping_for(1, {0, 2}, 5);
  m.jobs[2] = core::Mapping::Entry{"", {1}, false};
  m.jobs[3] = core::Mapping::Entry{"a b", {}, false};
  ASSERT_TRUE(client.publish(m));
  EXPECT_EQ(store.get(), m);
  const auto snap = client.fetch(2);
  ASSERT_TRUE(snap.has_value());
  ASSERT_TRUE(snap->found);
  EXPECT_EQ(snap->ions, (std::vector<int>{1}));
  EXPECT_EQ(snap->epoch, 5u);
}

/// 256 jobs on 12 IONs, as on the job-churn benchmark: the first
/// publish writes every entry, each later one at most the entries the
/// event rematerialised plus the id it erased or inserted.
TEST(MappingStoreTest, PublishWritesOnlyTheEntriesAnEventChanged) {
  telemetry::Registry reg;
  auto policy = std::make_shared<core::MckpPolicy>();
  core::ArbiterOptions o;
  o.pool = 12;
  o.registry = &reg;
  core::Arbiter arb(policy, o);
  MappingStore store(&reg);
  auto& written = reg.counter("fwd.mapping.entries_written");
  auto& remapped = reg.counter("core.arbiter.remapped_jobs",
                               {{"policy", policy->name()}});

  const platform::PerfModel model(platform::mn4_params());
  const auto grid = workload::mn4_scenario_grid();
  const auto ion_options = platform::default_ion_options();
  iofa::Rng rng(17);
  auto random_app = [&] {
    const auto& pattern = grid[rng.index(grid.size())];
    return core::AppEntry{
        "app" + std::to_string(rng.index(9)), pattern.compute_nodes,
        pattern.processes(),
        platform::curve_from_model(model, pattern, ion_options)};
  };
  std::vector<core::JobId> running;
  core::JobId next_id = 1;
  for (; next_id <= 256; ++next_id) {
    arb.job_started(next_id, random_app());
    running.push_back(next_id);
  }
  store.publish(arb.mapping());
  EXPECT_EQ(written.value(), 256u);

  for (int event = 0; event < 200; ++event) {
    const auto written0 = written.value();
    const auto remapped0 = remapped.value();
    if (event % 2 == 0) {
      const auto pos = rng.index(running.size());
      arb.job_finished(running[pos]);
      running.erase(running.begin() + static_cast<long>(pos));
    } else {
      arb.job_started(next_id, random_app());
      running.push_back(next_id++);
    }
    store.publish(arb.mapping());
    const auto wrote = written.value() - written0;
    EXPECT_GE(wrote, 1u) << "event " << event;
    EXPECT_LE(wrote, remapped.value() - remapped0 + 1) << "event " << event;
    ASSERT_EQ(store.get(), arb.mapping()) << "event " << event;
  }
}

TEST(ClientMappingViewTest, CachesUntilPollPeriod) {
  MappingStore store;
  store.publish(mapping_for(1, {0}, 1));
  DirectMappingPort port(std::as_const(store));
  ClientMappingView view(port, 1, /*poll_period=*/10.0);
  EXPECT_EQ(view.ions(), (std::vector<int>{0}));  // initial poll
  store.publish(mapping_for(1, {1, 2}, 2));
  // Inside the poll period: still the stale view (the paper's 10 s lag).
  EXPECT_EQ(view.ions(), (std::vector<int>{0}));
  view.refresh_now();
  EXPECT_EQ(view.ions(), (std::vector<int>{1, 2}));
  EXPECT_EQ(view.observed_epoch(), 2u);
}

TEST(ClientMappingViewTest, ZeroPeriodSeesEveryChange) {
  MappingStore store;
  DirectMappingPort port(std::as_const(store));
  ClientMappingView view(port, 1, 0.0);
  EXPECT_TRUE(view.ions().empty());
  store.publish(mapping_for(1, {3}, 1));
  EXPECT_EQ(view.ions(), (std::vector<int>{3}));
}

// --------------------------------------------------------------- client
TEST(ClientTest, DirectWhenUnmapped) {
  ForwardingService service(fast_service());
  Client client(client_cfg(1), service);
  const auto data = pattern_data(4096, 1);
  EXPECT_EQ(client.pwrite(0, "/f", 0, 4096, data), 4096u);
  EXPECT_EQ(client.direct_ops(), 1u);
  EXPECT_EQ(client.forwarded_ops(), 0u);
  EXPECT_EQ(service.pfs().bytes_written(), 4096u);
}

TEST(ClientTest, ForwardedWhenMapped) {
  ForwardingService service(fast_service());
  service.apply_mapping(mapping_for(1, {0, 1}));
  Client client(client_cfg(1), service);
  const auto data = pattern_data(4096, 1);
  EXPECT_EQ(client.pwrite(0, "/f", 0, 4096, data), 4096u);
  EXPECT_EQ(client.forwarded_ops(), 1u);
  EXPECT_EQ(client.direct_ops(), 0u);
  service.drain();
  EXPECT_EQ(service.pfs().bytes_written(), 4096u);
}

TEST(ClientTest, SameFileAlwaysSameIon) {
  ForwardingService service(fast_service(4));
  service.apply_mapping(mapping_for(1, {0, 1, 2, 3}));
  Client client(client_cfg(1), service);
  for (int i = 0; i < 16; ++i) {
    client.pwrite(0, "/onefile", static_cast<std::uint64_t>(i) * 4096,
                  4096, pattern_data(4096, 1));
  }
  service.drain();
  int daemons_touched = 0;
  for (int d = 0; d < 4; ++d) {
    if (service.daemon(d).stats().requests > 0) ++daemons_touched;
  }
  EXPECT_EQ(daemons_touched, 1);  // GekkoFWD: one ION per file
}

TEST(ClientTest, DistinctFilesSpreadOverIons) {
  ForwardingService service(fast_service(4));
  service.apply_mapping(mapping_for(1, {0, 1, 2, 3}));
  Client client(client_cfg(1), service);
  for (int f = 0; f < 32; ++f) {
    client.pwrite(0, "/file" + std::to_string(f), 0, 4096,
                  pattern_data(4096, 1));
  }
  service.drain();
  int daemons_touched = 0;
  for (int d = 0; d < 4; ++d) {
    if (service.daemon(d).stats().requests > 0) ++daemons_touched;
  }
  EXPECT_GE(daemons_touched, 3);  // hash spreads files
}

TEST(ClientTest, ForwardedReadBack) {
  ForwardingService service(fast_service());
  service.apply_mapping(mapping_for(1, {2}));
  Client client(client_cfg(1), service);
  const auto data = pattern_data(65536, 9);
  client.pwrite(0, "/f", 0, 65536, data);
  std::vector<std::byte> out(65536);
  EXPECT_EQ(client.pread(0, "/f", 0, 65536, out), 65536u);
  EXPECT_EQ(out, data);
}

TEST(ClientTest, FsyncMakesDataDurableOnPfs) {
  ForwardingService service(fast_service());
  service.apply_mapping(mapping_for(1, {1}));
  Client client(client_cfg(1), service);
  const auto data = pattern_data(8192, 2);
  client.pwrite(0, "/f", 0, 8192, data);
  client.fsync("/f");
  // Without drain(): fsync alone must suffice.
  std::vector<std::byte> out(8192);
  EXPECT_EQ(service.pfs().read("/f", 0, 8192, out), 8192u);
  EXPECT_EQ(out, data);
}

// A remap between a write and its fsync: the write is still staged on
// the ION the job lost (its PFS write bucket is drained, so the flush
// crawls), and the fsync must reach that ION too, not just the new one.
TEST(ClientTest, FsyncAfterRemapCoversTheOldIon) {
  ServiceConfig cfg = fast_service(2);
  cfg.pfs.write_bandwidth = 1.0e6;
  cfg.pfs.op_overhead = 0;
  ForwardingService service(std::move(cfg));
  service.pfs().write("/warm", 0, static_cast<Bytes>(8 * MiB), {});
  service.apply_mapping(mapping_for(1, {0}));
  Client client(client_cfg(1), service);
  const auto data = pattern_data(65536, 3);
  ASSERT_EQ(client.pwrite(0, "/f", 0, data.size(), data), data.size());

  service.apply_mapping(mapping_for(1, {1}, /*epoch=*/2));
  client.refresh_mapping();
  client.fsync("/f");
  // Without drain(): the fsync alone must have waited for ION 0.
  std::vector<std::byte> out(data.size());
  EXPECT_EQ(service.pfs().read("/f", 0, out.size(), out), out.size());
  EXPECT_EQ(out, data) << "fsync returned with the old ION's write staged";
  service.drain();
}

TEST(ClientTest, RemapMovesNewTraffic) {
  ForwardingService service(fast_service(2));
  service.apply_mapping(mapping_for(1, {0}));
  Client client(client_cfg(1), service);
  client.pwrite(0, "/f", 0, 4096, pattern_data(4096, 1));
  service.drain();
  EXPECT_GT(service.daemon(0).stats().requests, 0u);
  EXPECT_EQ(service.daemon(1).stats().requests, 0u);

  service.apply_mapping(mapping_for(1, {1}, /*epoch=*/2));
  client.pwrite(0, "/f", 4096, 4096, pattern_data(4096, 2));
  service.drain();
  EXPECT_GT(service.daemon(1).stats().requests, 0u);
}

TEST(ClientTest, RemapToDirectWorks) {
  ForwardingService service(fast_service(2));
  service.apply_mapping(mapping_for(1, {0}));
  Client client(client_cfg(1), service);
  client.pwrite(0, "/f", 0, 4096, pattern_data(4096, 1));
  core::Mapping m;
  m.epoch = 2;
  m.pool = 2;
  m.jobs[1] = core::Mapping::Entry{"app", {}, false};  // direct
  service.apply_mapping(m);
  client.pwrite(0, "/f", 4096, 4096, pattern_data(4096, 2));
  EXPECT_EQ(client.direct_ops(), 1u);
  EXPECT_EQ(client.forwarded_ops(), 1u);
  service.drain();
}

TEST(ClientTest, TwoJobsIsolatedMappings) {
  ForwardingService service(fast_service(4));
  core::Mapping m;
  m.epoch = 1;
  m.pool = 4;
  m.jobs[1] = core::Mapping::Entry{"a", {0}, false};
  m.jobs[2] = core::Mapping::Entry{"b", {}, false};
  service.apply_mapping(m);
  Client c1(client_cfg(1), service);
  Client c2(client_cfg(2), service);
  c1.pwrite(0, "/a", 0, 4096, pattern_data(4096, 1));
  c2.pwrite(0, "/b", 0, 4096, pattern_data(4096, 2));
  EXPECT_EQ(c1.forwarded_ops(), 1u);
  EXPECT_EQ(c2.direct_ops(), 1u);
  service.drain();
}

TEST(ClientTest, TraceRecordsOperations) {
  ForwardingService service(fast_service());
  service.apply_mapping(mapping_for(1, {0}));
  Client client(client_cfg(1), service);
  auto log = std::make_shared<trace::TraceLog>("job1");
  client.set_trace(log);
  client.pwrite(3, "/f", 0, 4096, pattern_data(4096, 1));
  std::vector<std::byte> out(4096);
  client.pread(3, "/f", 0, 4096, out);
  EXPECT_EQ(log->size(), 2u);
  EXPECT_EQ(log->bytes_written(), 4096u);
  EXPECT_EQ(log->bytes_read(), 4096u);
  const auto snap = log->snapshot();
  EXPECT_EQ(snap[0].rank, 3u);
  EXPECT_LE(snap[0].t_start, snap[0].t_end);
}

TEST(ClientTest, ConcurrentRanksThroughOneClient) {
  ForwardingService service(fast_service(4));
  service.apply_mapping(mapping_for(1, {0, 1, 2, 3}));
  Client client(client_cfg(1), service);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto data = pattern_data(4096, static_cast<std::uint64_t>(t));
      for (int i = 0; i < 16; ++i) {
        client.pwrite(static_cast<std::uint32_t>(t),
                      "/rank" + std::to_string(t),
                      static_cast<std::uint64_t>(i) * 4096, 4096, data);
      }
    });
  }
  for (auto& t : threads) t.join();
  service.drain();
  EXPECT_EQ(service.pfs().bytes_written(), 8u * 16u * 4096u);
}

// --------------------------------------------------- burst-buffer mode
TEST(BurstBufferMode, ScattersChunksAcrossAllDaemons) {
  ForwardingService service(fast_service(4));
  ClientConfig cc = client_cfg(1);
  cc.mode = ClientMode::BurstBuffer;
  Client client(cc, service);
  // 4 chunks (512 KiB each) of one file: hashing spreads them.
  const auto data = pattern_data(4 * 512 * 1024, 3);
  client.pwrite(0, "/big", 0, data.size(), data);
  service.drain();
  int daemons_touched = 0;
  for (int d = 0; d < 4; ++d) {
    if (service.daemon(d).stats().requests > 0) ++daemons_touched;
  }
  EXPECT_GE(daemons_touched, 2);  // unlike forwarding mode's single ION
}

TEST(BurstBufferMode, ReadBackAcrossChunksIsIntact) {
  ForwardingService service(fast_service(4));
  ClientConfig cc = client_cfg(1);
  cc.mode = ClientMode::BurstBuffer;
  Client client(cc, service);
  const auto data = pattern_data(3 * 512 * 1024 + 777, 9);
  client.pwrite(0, "/f", 0, data.size(), data);
  std::vector<std::byte> out(data.size());
  EXPECT_EQ(client.pread(0, "/f", 0, data.size(), out), data.size());
  EXPECT_EQ(out, data);
}

TEST(BurstBufferMode, FsyncFlushesEveryDaemon) {
  ForwardingService service(fast_service(4));
  ClientConfig cc = client_cfg(1);
  cc.mode = ClientMode::BurstBuffer;
  Client client(cc, service);
  const auto data = pattern_data(4 * 512 * 1024, 5);
  client.pwrite(0, "/f", 0, data.size(), data);
  client.fsync("/f");
  // Without drain: fsync alone must have pushed everything to the PFS.
  EXPECT_EQ(service.pfs().bytes_written(), data.size());
}

TEST(BurstBufferMode, IgnoresForwardingMapping) {
  ForwardingService service(fast_service(4));
  service.apply_mapping(mapping_for(1, {0}));  // forwarding would pin to 0
  ClientConfig cc = client_cfg(1);
  cc.mode = ClientMode::BurstBuffer;
  Client client(cc, service);
  const auto data = pattern_data(8 * 512 * 1024, 2);
  client.pwrite(0, "/spread", 0, data.size(), data);
  service.drain();
  int daemons_touched = 0;
  for (int d = 0; d < 4; ++d) {
    if (service.daemon(d).stats().requests > 0) ++daemons_touched;
  }
  EXPECT_GE(daemons_touched, 3);
}

// --------------------------------------------------------- interference
TEST(SharedIonInterference, TwoJobsThroughOneIonStayCorrect) {
  ForwardingService service(fast_service(1));
  core::Mapping m;
  m.epoch = 1;
  m.pool = 1;
  m.jobs[1] = core::Mapping::Entry{"a", {0}, false};
  m.jobs[2] = core::Mapping::Entry{"b", {0}, false};
  service.apply_mapping(m);
  Client c1(client_cfg(1), service);
  Client c2(client_cfg(2), service);

  const auto d1 = pattern_data(256 * 1024, 11);
  const auto d2 = pattern_data(256 * 1024, 22);
  std::thread t1([&] { c1.pwrite(0, "/job1", 0, d1.size(), d1); });
  std::thread t2([&] { c2.pwrite(0, "/job2", 0, d2.size(), d2); });
  t1.join();
  t2.join();
  service.drain();

  std::vector<std::byte> out(256 * 1024);
  service.pfs().read("/job1", 0, out.size(), out);
  EXPECT_EQ(out, d1);
  service.pfs().read("/job2", 0, out.size(), out);
  EXPECT_EQ(out, d2);
}

// ------------------------------------------------ in-proc inline dispatch
double counter_sum(telemetry::Registry& reg, const std::string& name) {
  double total = 0.0;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// An in-proc deployment whose daemons, PFS and clients all count into
/// `reg`, whatever IOFA_TRANSPORT says.
ServiceConfig inproc_service(telemetry::Registry& reg, int ions) {
  ServiceConfig cfg = fast_service(ions);
  cfg.transport = rpc::TransportKind::kInProc;
  cfg.pfs.registry = &reg;
  cfg.ion.registry = &reg;
  return cfg;
}

ClientConfig counted_client(telemetry::Registry& reg, ClientMode mode) {
  ClientConfig cc = client_cfg(1);
  cc.mode = mode;
  cc.registry = &reg;
  return cc;
}

/// Runs one op and returns the inline dispatches it added.
template <typename Op>
double inline_dispatches_of(telemetry::Registry& reg, Op&& op) {
  const double before = counter_sum(reg, "fwd.ion.inline_dispatches");
  op();
  return counter_sum(reg, "fwd.ion.inline_dispatches") - before;
}

// The caller waits for a one-slice op next, so an idle FIFO ION serves
// it on the calling thread: one inline dispatch per op, read included.
TEST(InProcInlineDispatch, OneSliceOpsRunOnTheCallingThread) {
  constexpr int kOps = 16;
  telemetry::Registry reg;
  ForwardingService service(inproc_service(reg, 1));
  service.apply_mapping(mapping_for(1, {0}));
  Client client(counted_client(reg, ClientMode::Forwarding), service);
  for (int i = 0; i < kOps; ++i) {
    const auto data = pattern_data(4096, static_cast<std::uint64_t>(i));
    const auto offset = static_cast<std::uint64_t>(i) * 4096;
    std::vector<std::byte> out(data.size());
    const double w = inline_dispatches_of(reg, [&] {
      ASSERT_EQ(client.pwrite(0, "/one", offset, data.size(), data),
                data.size());
    });
    const double r = inline_dispatches_of(reg, [&] {
      ASSERT_EQ(client.pread(0, "/one", offset, out.size(), out), out.size());
    });
    EXPECT_EQ(out, data) << "op " << i;
    EXPECT_EQ(w, 1.0) << "op " << i;
    EXPECT_EQ(r, 1.0) << "op " << i;
  }
}

// Only the last slice of a multi-slice op may run on the caller; the
// earlier ones queue so their IONs work in parallel. Each op straddles a
// chunk boundary whose two chunks live on different IONs.
TEST(InProcInlineDispatch, MultiSliceOpsDispatchOneSliceInline) {
  constexpr int kIons = 4;
  constexpr int kOps = 16;
  telemetry::Registry reg;
  ForwardingService service(inproc_service(reg, kIons));
  Client client(counted_client(reg, ClientMode::BurstBuffer), service);
  std::string path;
  for (int i = 0; path.empty(); ++i) {
    const std::string p = "/split" + std::to_string(i);
    const std::uint64_t id = gkfs::hash_path(p);
    if (gkfs::daemon_of(id, 0, kIons) != gkfs::daemon_of(id, 1, kIons)) {
      path = p;
    }
  }
  const std::uint64_t offset = gkfs::kChunkSize - 4096;
  for (int i = 0; i < kOps; ++i) {
    const auto data = pattern_data(8192, static_cast<std::uint64_t>(i));
    std::vector<std::byte> out(data.size());
    const double w = inline_dispatches_of(reg, [&] {
      ASSERT_EQ(client.pwrite(0, path, offset, data.size(), data),
                data.size());
    });
    const double r = inline_dispatches_of(reg, [&] {
      ASSERT_EQ(client.pread(0, path, offset, out.size(), out), out.size());
    });
    EXPECT_EQ(out, data) << "op " << i;
    EXPECT_EQ(w, 1.0) << "one inline dispatch per op, not per slice";
    EXPECT_EQ(r, 1.0) << "one inline dispatch per op, not per slice";
  }
  EXPECT_EQ(counter_sum(reg, "fwd.ion.requests"), 2.0 * 2 * kOps);
}

// Every daemon the inline rule excludes keeps in-proc ops on the queue
// path: an aggregating scheduler, QoS, a modelled dispatch latency, and
// a fault plan naming the ION, its request site or pfs.read (events
// scheduled far past the run, so none fires).
TEST(InProcInlineDispatch, IneligibleDaemonsQueueEveryOp) {
  enum class Kind { kToAgg, kQos, kLatency, kIonSite, kRequestSite, kPfsRead };
  for (const Kind kind : {Kind::kToAgg, Kind::kQos, Kind::kLatency,
                          Kind::kIonSite, Kind::kRequestSite, Kind::kPfsRead}) {
    telemetry::Registry reg;
    ServiceConfig cfg = inproc_service(reg, 1);
    fault::FaultPlan plan;
    switch (kind) {
      case Kind::kToAgg:
        cfg.ion.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
        cfg.ion.scheduler.aggregation_window = 1e-4;
        break;
      case Kind::kQos: {
        qos::TenantSpec tenant;
        tenant.name = "drill";
        cfg.qos.enabled = true;
        cfg.qos.tenants.push_back(tenant);
        break;
      }
      case Kind::kLatency:
        cfg.ion.dispatch_latency = 1e-5;
        break;
      case Kind::kIonSite:
        plan.crash_ion(0, 1e6);
        break;
      case Kind::kRequestSite:
        plan.stall(fault::request_site(0), 1e6, 0.001);
        break;
      case Kind::kPfsRead:
        plan.stall(fault::kPfsReadSite, 1e6, 0.001);
        break;
    }
    fault::ManualFaultClock clock;
    fault::FaultInjector injector(std::move(plan), &clock, &reg);
    cfg.injector = &injector;
    ForwardingService service(std::move(cfg));
    service.apply_mapping(mapping_for(1, {0}));
    Client client(counted_client(reg, ClientMode::Forwarding), service);
    for (int i = 0; i < 4; ++i) {
      const auto data = pattern_data(4096, static_cast<std::uint64_t>(i));
      const auto offset = static_cast<std::uint64_t>(i) * 4096;
      ASSERT_EQ(client.pwrite(0, "/q", offset, data.size(), data),
                data.size());
      std::vector<std::byte> out(data.size());
      ASSERT_EQ(client.pread(0, "/q", offset, out.size(), out), out.size());
      EXPECT_EQ(out, data);
    }
    service.drain();
    EXPECT_EQ(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0)
        << "daemon kind " << static_cast<int>(kind);
    EXPECT_EQ(counter_sum(reg, "fwd.ion.requests"), 8.0);
  }
}

// On an idle eligible ION a one-slice write is flushed on the calling
// thread once staged, and the fsync behind it finds its barrier met:
// the bytes are on the PFS when pwrite returns and no flusher wakes.
// Every daemon the inline rule excludes, and one whose fault plan names
// pfs.write, keeps the flushers: no inline flush, and with the PFS
// write bucket drained each fsync waits for its flusher.
TEST(InProcInlineDispatch, WriteAndFsyncWakeNoFlusher) {
  constexpr int kPairs = 16;
  {
    telemetry::Registry reg;
    ForwardingService service(inproc_service(reg, 1));
    service.apply_mapping(mapping_for(1, {0}));
    Client client(counted_client(reg, ClientMode::Forwarding), service);
    for (int i = 0; i < kPairs; ++i) {
      const auto data = pattern_data(4096, static_cast<std::uint64_t>(i));
      const auto offset = static_cast<std::uint64_t>(i) * 4096;
      ASSERT_EQ(client.pwrite(0, "/pair", offset, data.size(), data),
                data.size());
      std::vector<std::byte> out(data.size());
      ASSERT_EQ(service.pfs().read("/pair", offset, out.size(), out),
                out.size());
      EXPECT_EQ(out, data) << "write " << i << " not on the PFS at return";
      client.fsync("/pair");
    }
    EXPECT_EQ(counter_sum(reg, "fwd.ion.inline_flushes"), kPairs);
    EXPECT_EQ(counter_sum(reg, "fwd.ion.fsync_met_at_ingest"), kPairs);
  }
  enum class Kind { kToAgg, kQos, kLatency, kPfsWrite };
  for (const Kind kind :
       {Kind::kToAgg, Kind::kQos, Kind::kLatency, Kind::kPfsWrite}) {
    telemetry::Registry reg;
    ServiceConfig cfg = inproc_service(reg, 1);
    // ~160 ms of write tokens per 16 KiB flush once the burst is gone.
    cfg.pfs.write_bandwidth = 1.0e5;
    cfg.pfs.op_overhead = 0;
    fault::FaultPlan plan;
    switch (kind) {
      case Kind::kToAgg:
        cfg.ion.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
        cfg.ion.scheduler.aggregation_window = 1e-4;
        break;
      case Kind::kQos: {
        qos::TenantSpec tenant;
        tenant.name = "drill";
        cfg.qos.enabled = true;
        cfg.qos.tenants.push_back(tenant);
        break;
      }
      case Kind::kLatency:
        cfg.ion.dispatch_latency = 1e-5;
        break;
      case Kind::kPfsWrite:
        plan.stall(fault::kPfsWriteSite, 1e6, 0.001);
        break;
    }
    fault::ManualFaultClock clock;
    fault::FaultInjector injector(std::move(plan), &clock, &reg);
    cfg.injector = &injector;
    ForwardingService service(std::move(cfg));
    service.apply_mapping(mapping_for(1, {0}));
    Client client(counted_client(reg, ClientMode::Forwarding), service);
    // One pair first takes every one-time cost of the first op (a slow
    // first mapping fetch lets the bucket refill); the bucket is
    // drained after it, so it cannot refill by the next flush.
    ASSERT_EQ(client.pwrite(0, "/first", 0, 16384, pattern_data(16384, 9)),
              16384u);
    client.fsync("/first");
    const double met_before =
        counter_sum(reg, "fwd.ion.fsync_met_at_ingest");
    service.pfs().write("/warm", 0, static_cast<Bytes>(8 * MiB), {});
    for (int i = 0; i < 2; ++i) {
      const auto data = pattern_data(16384, static_cast<std::uint64_t>(i));
      const auto offset = static_cast<std::uint64_t>(i) * 16384;
      ASSERT_EQ(client.pwrite(0, "/q", offset, data.size(), data),
                data.size());
      client.fsync("/q");
      std::vector<std::byte> out(data.size());
      ASSERT_EQ(service.pfs().read("/q", offset, out.size(), out),
                out.size());
      EXPECT_EQ(out, data) << "daemon kind " << static_cast<int>(kind);
    }
    service.drain();
    EXPECT_EQ(counter_sum(reg, "fwd.ion.inline_flushes"), 0.0)
        << "daemon kind " << static_cast<int>(kind);
    EXPECT_EQ(counter_sum(reg, "fwd.ion.fsync_met_at_ingest"), met_before)
        << "daemon kind " << static_cast<int>(kind);
  }
}

// Eight threads race one eligible ION, each writing and re-reading its
// own extent: inline and queued dispatches interleave on both shards,
// yet every read returns its thread's last write and every offer lands
// in exactly one ledger bucket.
TEST(InProcInlineDispatch, ConcurrentCallersKeepTheirWritesAndTheLedger) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 64;
  telemetry::Registry reg;
  ServiceConfig cfg = inproc_service(reg, 1);
  cfg.ion.workers = 2;
  ForwardingService service(std::move(cfg));
  service.apply_mapping(mapping_for(1, {0}));
  Client client(counted_client(reg, ClientMode::Forwarding), service);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string path = "/extent" + std::to_string(t % 2);
      const auto offset = static_cast<std::uint64_t>(t) * 4096;
      std::vector<std::byte> out(4096);
      for (int r = 0; r < kRounds; ++r) {
        const auto data =
            pattern_data(4096, static_cast<std::uint64_t>(t * kRounds + r));
        client.pwrite(static_cast<std::uint32_t>(t), path, offset,
                      data.size(), data);
        client.pread(static_cast<std::uint32_t>(t), path, offset, out.size(),
                     out);
        if (out != data) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  service.drain();
  EXPECT_EQ(mismatches.load(), 0) << "a read missed its thread's last write";
  EXPECT_GT(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0);
  const double submitted = counter_sum(reg, "qos.tenant.submitted");
  EXPECT_EQ(submitted, 2.0 * kThreads * kRounds);
  EXPECT_EQ(submitted, counter_sum(reg, "qos.tenant.admitted") +
                           counter_sum(reg, "qos.tenant.rejected") +
                           counter_sum(reg, "qos.tenant.expired") +
                           counter_sum(reg, "qos.tenant.direct_fallback") +
                           counter_sum(reg, "qos.tenant.failed"));
}

}  // namespace
}  // namespace iofa::fwd
