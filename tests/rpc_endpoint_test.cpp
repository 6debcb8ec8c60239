// The ION link endpoints (RpcIonClient stub <-> RpcIonServer) on their
// own: completions ship from the daemon's continuation, so on the
// synchronous LoopbackTransport a submit-then-drain round trip needs no
// sleep and no thread of the endpoints' own; and an abandoned call
// (lost response, request timeout) leaves nothing behind in the stub -
// no pending entry, no read slab.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/clock.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fwd/client.hpp"
#include "fwd/rpc_endpoints.hpp"
#include "fwd/service.hpp"
#include "fwd/wait_slot.hpp"
#include "gkfs/chunk.hpp"
#include "rpc/transport.hpp"

namespace iofa::fwd {
namespace {

constexpr std::uint64_t kBlock = 4096;

std::vector<std::byte> pattern_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

ServiceConfig fast_config(telemetry::Registry& reg) {
  ServiceConfig cfg;
  cfg.ion_count = 1;
  cfg.pfs.write_bandwidth = 4.0e9;
  cfg.pfs.read_bandwidth = 4.0e9;
  cfg.pfs.op_overhead = 0;
  cfg.pfs.contention_coeff = 0.0;
  cfg.pfs.registry = &reg;
  cfg.ion.ingest_bandwidth = 4.0e9;
  cfg.ion.op_overhead = 0;
  cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
  cfg.ion.registry = &reg;
  return cfg;
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

double counter_sum(telemetry::Registry& reg, const std::string& name) {
  double total = 0.0;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

TEST(RpcIonEndpoints, LoopbackRoundTripNeedsNoSleepAndNoThread) {
  telemetry::Registry reg;
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kInProc;  // the daemon only
  ForwardingService svc(cfg);

  const std::size_t threads_before = thread_count();
  rpc::LoopbackTransport link;
  RpcIonServer server(link, svc, 0, cfg.rpc, &reg);
  RpcIonClient stub(link, 0, cfg.rpc, /*seed=*/1, &reg);
  EXPECT_EQ(thread_count(), threads_before)
      << "the endpoints must not start threads of their own";

  const std::string path = "/loop";
  const auto data = pattern_data(kBlock, 3);
  FwdRequest w;
  w.op = FwdOp::Write;
  w.path = path;
  w.file_id = gkfs::hash_path(path);
  w.size = kBlock;
  w.payload = svc.acquire_payload(kBlock);
  std::copy(data.begin(), data.end(), w.payload.span().begin());
  auto wrote = wait_on(w);
  // The ack crosses the loopback synchronously inside try_submit.
  ASSERT_EQ(stub.try_submit(std::move(w)), SubmitResult::kAccepted);
  // drain() returns only after the worker ran the continuation, which
  // sent the response, which completed the slot - all without a timer.
  svc.daemon(0).drain();
  const auto w_done = wrote->wait_for(0.0);
  ASSERT_TRUE(w_done.has_value());
  EXPECT_TRUE(w_done->ok());
  EXPECT_EQ(w_done->value, kBlock);

  FwdRequest r;
  r.op = FwdOp::Read;
  r.file_id = gkfs::hash_path(path);
  r.size = kBlock;
  r.payload = svc.acquire_payload(kBlock);
  Payload dst = r.payload;
  auto read = wait_on(r);
  ASSERT_EQ(stub.try_submit(std::move(r)), SubmitResult::kAccepted);
  svc.daemon(0).drain();
  const auto r_done = read->wait_for(0.0);
  ASSERT_TRUE(r_done.has_value());
  EXPECT_TRUE(r_done->ok());
  EXPECT_EQ(r_done->value, kBlock);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), dst.span().begin()));

  EXPECT_EQ(stub.pending_calls(), 0u);
  EXPECT_EQ(counter_sum(reg, "rpc.retries"), 0.0);
}

TEST(RpcIonEndpoints, RefusedSubmitAnswersWithoutAResponse) {
  telemetry::Registry reg;
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kInProc;
  ForwardingService svc(cfg);
  rpc::LoopbackTransport link;
  RpcIonServer server(link, svc, 0, cfg.rpc, &reg);
  RpcIonClient stub(link, 0, cfg.rpc, /*seed=*/1, &reg);

  svc.daemon(0).crash();
  FwdRequest req;
  req.op = FwdOp::Fsync;
  req.file_id = 1;
  auto slot = wait_on(req);
  EXPECT_EQ(stub.try_submit(std::move(req)), SubmitResult::kDown);
  EXPECT_EQ(stub.pending_calls(), 0u);
  EXPECT_FALSE(slot->wait_for(0.0).has_value());  // never completed
}

// Lost SubmitResponse frames: every dropped response costs the client
// one request timeout, after which it abandons the attempt and re-offers
// under a new id. The stub must forget the abandoned call: its entry
// and the read slab the entry holds.
TEST(RpcIonEndpoints, LostResponsesLeaveNoPendingCallsOrSlabs) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  // Server->client frames go ack, response, ack, response, ...: the
  // aggregation window below holds every dispatch long after its ack
  // left, so the even frames are the responses. Frames 1-2 belong to
  // the write; the drops eat the responses of three read attempts.
  plan.drop_msg(fault::rpc_rsp_site(0), 4)
      .drop_msg(fault::rpc_rsp_site(0), 6)
      .drop_msg(fault::rpc_rsp_site(0), 8);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kTcp;
  cfg.injector = &injector;
  cfg.ion.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
  cfg.ion.scheduler.aggregation_window = 0.02;
  ForwardingService svc(cfg);
  core::Mapping m;
  m.epoch = 1;
  m.pool = 1;
  m.jobs[7] = core::Mapping::Entry{"drill", {0}, false};
  svc.apply_mapping(m);

  ClientConfig cc;
  cc.job = 7;
  cc.app_label = "drill";
  cc.poll_period = 0.0;
  cc.request_timeout = 0.2;
  cc.max_attempts = 8;
  cc.registry = &reg;
  Client client(cc, svc);
  const auto data = pattern_data(kBlock, 9);
  ASSERT_EQ(client.pwrite(0, "/lost", 0, kBlock, data), kBlock);
  std::vector<std::byte> out(kBlock);
  ASSERT_EQ(client.pread(0, "/lost", 0, kBlock, out), kBlock);
  EXPECT_EQ(out, data);
  svc.drain();

  EXPECT_EQ(injector.injected(fault::rpc_rsp_site(0)), 3u);
  // At least one lost frame was a response the client gave up on (a
  // lost ack is resent by the stub and costs no client retry).
  EXPECT_GE(counter_sum(reg, "fwd.retries"), 1.0);
  auto& stub = dynamic_cast<RpcIonClient&>(svc.ion_port(0));
  EXPECT_EQ(stub.pending_calls(), 0u);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.slab.acquired"),
            counter_sum(reg, "fwd.ion.slab.released"));
}

// The in-proc port is direct calls: a pwrite, a pread and an fsync
// through the service move no frame at all. Over TCP the same three
// ops must go through the codec, so rpc.frames_sent counts them.
class ServiceFrames : public ::testing::TestWithParam<rpc::TransportKind> {};

TEST_P(ServiceFrames, InProcMovesNoFrameTcpMovesSome) {
  telemetry::Registry reg;
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = GetParam();
  ForwardingService svc(cfg);
  core::Mapping m;
  m.epoch = 1;
  m.pool = 1;
  m.jobs[7] = core::Mapping::Entry{"frames", {0}, false};
  svc.apply_mapping(m);

  ClientConfig cc;
  cc.job = 7;
  cc.app_label = "frames";
  cc.poll_period = 0.0;
  cc.registry = &reg;
  Client client(cc, svc);
  const auto data = pattern_data(kBlock, 11);
  ASSERT_EQ(client.pwrite(0, "/frames", 0, kBlock, data), kBlock);
  std::vector<std::byte> out(kBlock);
  ASSERT_EQ(client.pread(0, "/frames", 0, kBlock, out), kBlock);
  EXPECT_EQ(out, data);
  client.fsync("/frames");
  svc.drain();

  const double frames = counter_sum(reg, "rpc.frames_sent");
  if (GetParam() == rpc::TransportKind::kInProc) {
    EXPECT_EQ(frames, 0.0);
  } else {
    EXPECT_GT(frames, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ServiceFrames,
    ::testing::Values(rpc::TransportKind::kInProc, rpc::TransportKind::kTcp),
    [](const ::testing::TestParamInfo<rpc::TransportKind>& info) {
      return std::string(rpc::to_string(info.param));
    });

}  // namespace
}  // namespace iofa::fwd
