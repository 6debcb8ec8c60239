// The ION link endpoints (RpcIonClient stub <-> RpcIonServer) on their
// own: a forwarded request moves one request frame and one response
// frame, shipped from the daemon's continuation, so on the synchronous
// LoopbackTransport an issue-then-drain round trip needs no sleep and
// no thread of the endpoints' own. A refusal is a response too, a lost
// response is recovered by a resend the dedup cache answers, and a call
// the waiter gave up on leaves nothing behind in the stub - no pending
// entry, no read slab.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <variant>
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
#include "rpc/codec.hpp"
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

/// A loopback link that keeps a copy of every frame each side sent.
class TapTransport : public rpc::Transport {
 public:
  void set_handler(int side, Handler handler) override {
    inner_.set_handler(side, std::move(handler));
  }
  void send(int side, std::span<const std::byte> frame) override {
    sent[side].emplace_back(frame.begin(), frame.end());
    inner_.send(side, frame);
  }
  void close() override { inner_.close(); }

  std::vector<std::vector<std::byte>> sent[2];

 private:
  rpc::LoopbackTransport inner_;
};

/// submitted == admitted + rejected + expired + direct_fallback + failed
void expect_ledger_balances(telemetry::Registry& reg) {
  const double submitted = counter_sum(reg, "qos.tenant.submitted");
  EXPECT_GT(submitted, 0.0);
  EXPECT_EQ(submitted, counter_sum(reg, "qos.tenant.admitted") +
                           counter_sum(reg, "qos.tenant.rejected") +
                           counter_sum(reg, "qos.tenant.expired") +
                           counter_sum(reg, "qos.tenant.direct_fallback") +
                           counter_sum(reg, "qos.tenant.failed"));
}

/// A one-ION TCP deployment with job 7 mapped onto ION 0.
void map_job_7(ForwardingService& svc) {
  core::Mapping m;
  m.epoch = 1;
  m.pool = 1;
  m.jobs[7] = core::Mapping::Entry{"drill", {0}, false};
  svc.apply_mapping(m);
}

ClientConfig job_7(telemetry::Registry& reg, Seconds request_timeout) {
  ClientConfig cc;
  cc.job = 7;
  cc.app_label = "drill";
  cc.poll_period = 0.0;
  cc.request_timeout = request_timeout;
  cc.max_attempts = 8;
  cc.registry = &reg;
  return cc;
}

TEST(RpcIonEndpoints, LoopbackRoundTripNeedsNoSleepAndNoThread) {
  telemetry::Registry reg;
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kInProc;  // the daemon only
  ForwardingService svc(cfg);

  const std::size_t threads_before = thread_count();
  TapTransport link;
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
  stub.issue(std::move(w));
  // drain() returns only after the worker ran the continuation, which
  // sent the response, which completed the slot - all without a timer.
  svc.daemon(0).drain();
  const auto w_done = stub.wait(*wrote, 0.0);
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
  stub.issue(std::move(r));
  svc.daemon(0).drain();
  const auto r_done = stub.wait(*read, 0.0);
  ASSERT_TRUE(r_done.has_value());
  EXPECT_TRUE(r_done->ok());
  EXPECT_EQ(r_done->value, kBlock);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), dst.span().begin()));

  EXPECT_EQ(stub.pending_calls(), 0u);
  EXPECT_EQ(counter_sum(reg, "rpc.retries"), 0.0);
  // One answer per request: a request frame and its response, nothing
  // else - no ack for a fresh request.
  EXPECT_EQ(counter_sum(reg, "rpc.frames_sent"), 4.0);
  ASSERT_EQ(link.sent[rpc::kServerSide].size(), 2u);
  for (const auto& f : link.sent[rpc::kServerSide]) {
    EXPECT_TRUE(
        std::holds_alternative<rpc::SubmitResponseMsg>(rpc::decode(f).msg));
  }
}

TEST(RpcIonEndpoints, RefusedSubmitCompletesRejected) {
  telemetry::Registry reg;
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kInProc;
  ForwardingService svc(cfg);
  TapTransport link;
  RpcIonServer server(link, svc, 0, cfg.rpc, &reg);
  RpcIonClient stub(link, 0, cfg.rpc, /*seed=*/1, &reg);

  svc.daemon(0).crash();
  FwdRequest req;
  req.op = FwdOp::Fsync;
  req.file_id = 1;
  auto slot = wait_on(req);
  stub.issue(std::move(req));
  // The refusal crossed the loopback inside issue(): a completion.
  const auto got = slot->wait_for(0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, CompletionStatus::kRejected);
  EXPECT_EQ(stub.pending_calls(), 0u);
  EXPECT_EQ(stub.wait(*slot, 0.0)->status, CompletionStatus::kRejected);

  // A resend of that id is answered from the cache, byte for byte, and
  // never reaches the daemon.
  ASSERT_EQ(link.sent[rpc::kClientSide].size(), 1u);
  ASSERT_EQ(link.sent[rpc::kServerSide].size(), 1u);
  const auto request = link.sent[rpc::kClientSide][0];
  link.send(rpc::kClientSide, request);
  ASSERT_EQ(link.sent[rpc::kServerSide].size(), 2u);
  EXPECT_EQ(link.sent[rpc::kServerSide][1], link.sent[rpc::kServerSide][0]);
  const rpc::Decoded replay = rpc::decode(link.sent[rpc::kServerSide][1]);
  const auto* rsp = std::get_if<rpc::SubmitResponseMsg>(&replay.msg);
  ASSERT_NE(rsp, nullptr);
  EXPECT_EQ(rsp->status, rpc::WireStatus::kRejected);
  EXPECT_EQ(counter_sum(reg, "rpc.dedup_hits"), 1.0);
}

// A SubmitRequest whose checksum is intact but whose payload disagrees
// with its size is refused by the codec: counted in rpc.codec_errors,
// and the daemon never sees it (it would copy `size` bytes out of a
// one-byte slab).
TEST(RpcIonEndpoints, MismatchedPayloadNeverReachesTheDaemon) {
  telemetry::Registry reg;
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kInProc;
  ForwardingService svc(cfg);
  TapTransport link;
  RpcIonServer server(link, svc, 0, cfg.rpc, &reg);
  RpcIonClient stub(link, 0, cfg.rpc, /*seed=*/1, &reg);

  rpc::SubmitRequestMsg msg;
  msg.op = rpc::WireOp::kWrite;
  msg.path = "/short";
  msg.file_id = gkfs::hash_path(msg.path);
  msg.size = 16 * 1024;
  msg.payload.assign(1, std::byte{0x5A});
  link.send(rpc::kClientSide, rpc::encode(1, msg));
  svc.daemon(0).drain();

  EXPECT_EQ(counter_sum(reg, "rpc.codec_errors"), 1.0);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.requests"), 0.0);
  EXPECT_TRUE(link.sent[rpc::kServerSide].empty());
}

// Lost SubmitResponse frames are recovered by the waiter's resends,
// which the dedup cache answers with the cached response: no request
// timeout, no client retry. A request the ION holds past the request
// timeout is given up on (once a held ack said the ION has it) and
// re-offered under a new id. The stub must forget the call it gave up
// on: its entry and the read slab the entry holds.
TEST(RpcIonEndpoints, LostResponsesLeaveNoPendingCallsOrSlabs) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  // Server->client frames carry only answers: the write's response is
  // frame 1 and the replays its resends fetch are frames 2 and 3, all
  // lost - the fourth answer gets through. The read's first dispatch
  // then stalls past the request timeout (the only dispatch inside the
  // stall window: the clock leaves it as soon as the stall fires).
  plan.drop_msg(fault::rpc_rsp_site(0), 1)
      .drop_msg(fault::rpc_rsp_site(0), 2)
      .drop_msg(fault::rpc_rsp_site(0), 3)
      .stall(fault::request_site(0), 1.0, 0.3);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kTcp;
  cfg.injector = &injector;
  cfg.rpc.ack_timeout = 0.03;
  cfg.ion.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
  cfg.ion.scheduler.aggregation_window = 0.02;
  ForwardingService svc(cfg);
  map_job_7(svc);

  Client client(job_7(reg, /*request_timeout=*/0.2), svc);
  const auto data = pattern_data(kBlock, 9);
  ASSERT_EQ(client.pwrite(0, "/lost", 0, kBlock, data), kBlock);

  clock.set(1.0);
  std::thread leave_window([&] {
    while (injector.injected(fault::request_site(0)) == 0) {
      sleep_for_seconds(1e-3);
    }
    clock.set(2.0);
  });
  std::vector<std::byte> out(kBlock);
  ASSERT_EQ(client.pread(0, "/lost", 0, kBlock, out), kBlock);
  leave_window.join();
  EXPECT_EQ(out, data);
  svc.drain();

  EXPECT_EQ(injector.injected(fault::rpc_rsp_site(0)), 3u);
  // At least one read attempt was given up on and re-offered (a lost
  // response costs a resend, not a client retry).
  EXPECT_GE(counter_sum(reg, "fwd.retries"), 1.0);
  auto& stub = dynamic_cast<RpcIonClient&>(svc.ion_port(0));
  EXPECT_EQ(stub.pending_calls(), 0u);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.slab.acquired"),
            counter_sum(reg, "fwd.ion.slab.released"));
}

// With the ack window shorter than the request timeout, a lost response
// is replayed from the server's cache by the next resend: the caller
// sees its completion, not a timeout, and never re-offers.
TEST(RpcIonEndpoints, LostResponseIsReplayedNotRetried) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.drop_msg(fault::rpc_rsp_site(0), 1);  // the write's response
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kTcp;
  cfg.injector = &injector;
  cfg.rpc.ack_timeout = 0.05;
  ForwardingService svc(cfg);
  map_job_7(svc);

  Client client(job_7(reg, /*request_timeout=*/2.0), svc);
  const auto data = pattern_data(kBlock, 21);
  ASSERT_EQ(client.pwrite(0, "/replay", 0, kBlock, data), kBlock);
  std::vector<std::byte> out(kBlock);
  ASSERT_EQ(client.pread(0, "/replay", 0, kBlock, out), kBlock);
  EXPECT_EQ(out, data);
  svc.drain();

  EXPECT_EQ(injector.injected(fault::rpc_rsp_site(0)), 1u);
  EXPECT_EQ(counter_sum(reg, "fwd.retries"), 0.0);
  EXPECT_GE(counter_sum(reg, "rpc.retries"), 1.0);
  EXPECT_GE(counter_sum(reg, "rpc.dedup_hits"), 1.0);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.requests"), 2.0);
  expect_ledger_balances(reg);
}

// Handoff rule: a request timeout shorter than the ack window expires
// while the request frame is still lost. The waiter must not abandon an
// offer the ION never received - it resends at once and waits for an
// answer. The resent copy arrives past its deadline, so the ION counts
// it expired (its one ledger bucket) and the client re-offers; the
// write is dispatched once and the ledger balances.
TEST(RpcIonEndpoints, TimeoutBeforeTheIonHoldsTheRequestDoesNotAbandonIt) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.drop_msg(fault::rpc_req_site(0), 1);  // the write's request
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kTcp;
  cfg.injector = &injector;
  cfg.rpc.ack_timeout = 0.5;
  ForwardingService svc(cfg);
  map_job_7(svc);

  Client client(job_7(reg, /*request_timeout=*/0.05), svc);
  const auto data = pattern_data(kBlock, 33);
  ASSERT_EQ(client.pwrite(0, "/handoff", 0, kBlock, data), kBlock);
  svc.drain();

  EXPECT_EQ(injector.injected(fault::rpc_req_site(0)), 1u);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.requests"), 1.0);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.direct_fallback"), 0.0);
  expect_ledger_balances(reg);
  std::vector<std::byte> back(kBlock);
  ASSERT_EQ(svc.pfs().read("/handoff", 0, kBlock, back, 1.0), kBlock);
  EXPECT_EQ(back, data);
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
