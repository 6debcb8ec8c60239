// The ION link endpoints (RpcIonClient stub <-> RpcIonServer) on their
// own: a forwarded request moves one request frame and one response
// frame, shipped from the daemon's continuation, so on the synchronous
// LoopbackTransport an issue-then-drain round trip needs no sleep and
// no thread of the endpoints' own. A refusal is a response too, a lost
// response is recovered by a resend the dedup cache answers, and a call
// the waiter gave up on leaves nothing behind in the stub - no pending
// entry, no read slab. Over TCP the server's reader thread dispatches a
// request itself when its shard is idle: per-stream FIFO, exactly-once
// completion across shutdown and crash, and the eligibility rule (FIFO
// only, no QoS) are checked here. On the client side of a TCP link the
// waiting callers read the answers themselves (leader/follower): a lone
// caller never sleeps for another, shared links settle every call once,
// and unwaited answers wedge neither the link nor shutdown.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/mutex.hpp"
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
#include "rpc/tcp_transport.hpp"
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
  RpcIonServer server(link, svc, 0, &reg);
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
  RpcIonServer server(link, svc, 0, &reg);
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
  RpcIonServer server(link, svc, 0, &reg);
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

// --- inline dispatch on the server's reader thread --------------------------

/// A TCP link that counts the SubmitResponse frames the server sends,
/// per request id: a request completed twice would answer twice.
class ResponseCountingLink : public rpc::Transport {
 public:
  ResponseCountingLink()
      : inner_(rpc::make_transport(rpc::TransportKind::kTcp)) {}
  void set_handler(int side, Handler handler) override {
    inner_->set_handler(side, std::move(handler));
  }
  void send(int side, std::span<const std::byte> frame) override {
    if (side == rpc::kServerSide) {
      const rpc::Decoded d =
          rpc::decode(std::vector<std::byte>(frame.begin(), frame.end()));
      if (std::holds_alternative<rpc::SubmitResponseMsg>(d.msg)) {
        MutexLock lk(mu_);
        ++responses_[d.request_id];
      }
    }
    inner_->send(side, frame);
  }
  void close() override { inner_->close(); }

  /// Response frames per request id.
  std::map<std::uint64_t, int> responses() {
    MutexLock lk(mu_);
    return responses_;
  }

 private:
  std::unique_ptr<rpc::Transport> inner_;
  Mutex mu_;
  std::map<std::uint64_t, int> responses_ IOFA_GUARDED_BY(mu_);
};

/// Issue one write of `size` bytes of `fill` through `stub`, without
/// waiting for it.
std::shared_ptr<WaitSlot> issue_write(ForwardingService& svc,
                                      RpcIonClient& stub,
                                      const std::string& path,
                                      std::uint64_t offset, std::uint64_t size,
                                      std::byte fill) {
  FwdRequest w;
  w.op = FwdOp::Write;
  w.path = path;
  w.file_id = gkfs::hash_path(path);
  w.offset = offset;
  w.size = size;
  w.payload = svc.acquire_payload(size);
  std::fill(w.payload.span().begin(), w.payload.span().end(), fill);
  auto slot = wait_on(w);
  stub.issue(std::move(w));
  return slot;
}

/// A daemon behind its own counted TCP link: the stub issues straight
/// onto the link, so a test can put several requests in flight from
/// one thread. close() shuts the daemon down before the link, the same
/// order as ForwardingService::shutdown.
struct TcpIon {
  TcpIon(telemetry::Registry& reg, const ServiceConfig& cfg)
      : svc(daemon_only(cfg)),
        server(link, svc, 0, &reg),
        stub(link, 0, cfg.rpc, /*seed=*/1, &reg) {}
  ~TcpIon() { close(); }

  static ServiceConfig daemon_only(ServiceConfig cfg) {
    cfg.transport = rpc::TransportKind::kInProc;  // this link is the wire
    return cfg;
  }

  void close() {
    svc.daemon(0).shutdown();
    link.close();
  }

  std::shared_ptr<WaitSlot> write(const std::string& path,
                                  std::uint64_t offset, std::byte fill) {
    return issue_write(svc, stub, path, offset, kBlock, fill);
  }

  /// Issue a read of one block without waiting; the payload receives
  /// the bytes.
  std::pair<std::shared_ptr<WaitSlot>, Payload> issue_read(
      const std::string& path, std::uint64_t offset) {
    FwdRequest r;
    r.op = FwdOp::Read;
    r.file_id = gkfs::hash_path(path);
    r.offset = offset;
    r.size = kBlock;
    r.payload = svc.acquire_payload(kBlock);
    Payload dst = r.payload;
    auto slot = wait_on(r);
    stub.issue(std::move(r));
    return {std::move(slot), std::move(dst)};
  }

  /// Read one block back through the link; empty on a failed read.
  std::vector<std::byte> read(const std::string& path, std::uint64_t offset) {
    const auto [slot, dst] = issue_read(path, offset);
    const auto done = stub.wait(*slot, 0.0);
    if (!done || !done->ok() || done->value != kBlock) return {};
    return {dst.span().begin(), dst.span().end()};
  }

  /// Fsync one file through the link: every block written to it before
  /// is on the PFS and clean once this returns true.
  bool fsync(const std::string& path) {
    FwdRequest r;
    r.op = FwdOp::Fsync;
    r.file_id = gkfs::hash_path(path);
    auto slot = wait_on(r);
    stub.issue(std::move(r));
    const auto done = stub.wait(*slot, 0.0);
    return done && done->ok();
  }

  ForwardingService svc;
  ResponseCountingLink link;
  RpcIonServer server;
  RpcIonClient stub;
};

ServiceConfig fifo_workers(telemetry::Registry& reg, int workers) {
  ServiceConfig cfg = fast_config(reg);
  cfg.ion.workers = workers;
  // No resend while a request is in flight: every response frame the
  // link counts is a completion, not a cache replay.
  cfg.rpc.ack_timeout = 30.0;
  return cfg;
}

class InlineDispatch : public ::testing::TestWithParam<int> {};

// Per-stream FIFO through the inline path. Two writes of one extent are
// offered back to back on one link; whichever thread dispatches each
// (the reader inline, or the worker when the shard was busy), the
// younger one must land last. The inline path must also wait for a
// request the worker has popped but not yet scheduled, which an
// empty-queue check would miss. A second link into the same daemon
// keeps the shards busy with large inline writes of other files, so
// the worker often holds such a request while it waits for the
// dispatch lock, and the younger write may find the lock free first.
TEST_P(InlineDispatch, BackToBackWritesOfOneExtentLandInOfferOrder) {
  telemetry::Registry reg;
  const ServiceConfig cfg = fifo_workers(reg, GetParam());
  TcpIon ion(reg, cfg);
  ResponseCountingLink busy_link;
  RpcIonServer busy_server(busy_link, ion.svc, 0, &reg);
  RpcIonClient busy_stub(busy_link, 0, cfg.rpc, /*seed=*/2, &reg);
  std::atomic<bool> stop{false};
  std::thread busy([&] {
    // Sixteen files, so at four shards some share /fifo's write shard.
    for (int i = 0; !stop.load(); ++i) {
      const auto slot = issue_write(ion.svc, busy_stub,
                                    "/busy." + std::to_string(i % 16), 0,
                                    64 * kBlock, std::byte{1});
      ASSERT_TRUE(busy_stub.wait(*slot, 0.0)->ok());
    }
  });
  const struct Joiner {
    std::atomic<bool>& stop;
    std::thread& t;
    ~Joiner() {
      stop.store(true);
      t.join();
    }
  } joiner{stop, busy};
  constexpr int kRounds = 2000;
  int out_of_order = 0;
  for (int v = 0; v < kRounds; ++v) {
    const auto older = ion.write("/fifo", 0, static_cast<std::byte>(v));
    const auto younger = ion.write("/fifo", 0, static_cast<std::byte>(v + 1));
    ASSERT_TRUE(ion.stub.wait(*older, 0.0)->ok()) << "round " << v;
    ASSERT_TRUE(ion.stub.wait(*younger, 0.0)->ok()) << "round " << v;
    const std::vector<std::byte> want(kBlock, static_cast<std::byte>(v + 1));
    if (ion.read("/fifo", 0) != want) ++out_of_order;
  }
  EXPECT_EQ(out_of_order, 0) << "of " << kRounds << " rounds";
  EXPECT_GT(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0);
}

// An accepted request completes exactly once, and an acked write
// reaches the PFS, while shutdown() races a burst of inline-eligible
// writes (the RPC leg of IonDaemon.ShutdownFlushesAcceptedWork).
TEST_P(InlineDispatch, ShutdownRacingInlineDispatchesFlushesEveryAckedWrite) {
  telemetry::Registry reg;
  TcpIon ion(reg, fifo_workers(reg, GetParam()));
  constexpr int kWrites = 256;
  std::vector<std::shared_ptr<WaitSlot>> slots;
  for (int i = 0; i < kWrites; ++i) {
    slots.push_back(ion.write("/shut." + std::to_string(i % 4),
                              static_cast<std::uint64_t>(i / 4) * kBlock,
                              static_cast<std::byte>(i)));
    if (i == kWrites / 4) {
      ASSERT_TRUE(ion.stub.wait(*slots.front(), 0.0)->ok());
      ion.svc.daemon(0).shutdown();
    }
  }
  int acked = 0;
  for (auto& slot : slots) {
    const auto done = ion.stub.wait(*slot, 0.0);
    ASSERT_TRUE(done.has_value());
    ASSERT_TRUE(done->ok() || done->status == CompletionStatus::kRejected)
        << static_cast<int>(done->status);
    if (done->ok()) ++acked;
  }
  ion.close();
  EXPECT_GT(acked, 0);
  EXPECT_LT(acked, kWrites);  // the tail arrived after the shutdown
  EXPECT_GT(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.admitted"), acked);
  for (const auto& [id, n] : ion.link.responses()) {
    EXPECT_EQ(n, 1) << "request " << id;
  }
  EXPECT_EQ(ion.link.responses().size(), static_cast<std::size_t>(kWrites));
  for (int i = 0; i < kWrites; ++i) {
    if (!slots[static_cast<std::size_t>(i)]->wait().ok()) continue;
    std::vector<std::byte> back(kBlock);
    ASSERT_EQ(ion.svc.pfs().read("/shut." + std::to_string(i % 4),
                                 static_cast<std::uint64_t>(i / 4) * kBlock,
                                 kBlock, back, 1.0),
              kBlock)
        << "acked write " << i << " missing from the PFS";
    EXPECT_EQ(back, std::vector<std::byte>(kBlock, static_cast<std::byte>(i)));
  }
}

// crash() racing inline dispatches: every request ends in exactly one
// answer (ok, ION down or refused) that matches its ledger bucket, and
// every acked write still reaches the PFS - staging and the flushers
// survive the crash (the RPC leg of
// IonDaemon.EveryTerminalPathCompletesExactlyOnce).
TEST_P(InlineDispatch, CrashRacingInlineDispatchesCompletesEachRequestOnce) {
  telemetry::Registry reg;
  TcpIon ion(reg, fifo_workers(reg, GetParam()));
  constexpr int kWrites = 256;
  std::vector<std::shared_ptr<WaitSlot>> slots;
  for (int i = 0; i < kWrites; ++i) {
    slots.push_back(ion.write("/crash." + std::to_string(i % 4),
                              static_cast<std::uint64_t>(i / 4) * kBlock,
                              static_cast<std::byte>(i)));
    if (i == kWrites / 4) {
      ASSERT_TRUE(ion.stub.wait(*slots.front(), 0.0)->ok());
      ion.svc.daemon(0).crash();
    }
  }
  int ok = 0, down = 0, refused = 0;
  for (auto& slot : slots) {
    const auto done = ion.stub.wait(*slot, 0.0);
    ASSERT_TRUE(done.has_value());
    switch (done->status) {
      case CompletionStatus::kOk: ++ok; break;
      case CompletionStatus::kIonDown: ++down; break;
      case CompletionStatus::kRejected: ++refused; break;
      default: ADD_FAILURE() << static_cast<int>(done->status);
    }
  }
  ion.svc.daemon(0).drain();
  ion.close();
  EXPECT_GT(ok, 0);
  EXPECT_GT(refused, 0);
  EXPECT_EQ(ok + down + refused, kWrites);
  EXPECT_GT(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.admitted"), ok);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.failed"), down);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.expired"), 0.0);
  for (const auto& [id, n] : ion.link.responses()) {
    EXPECT_EQ(n, 1) << "request " << id;
  }
  EXPECT_EQ(ion.link.responses().size(), static_cast<std::size_t>(kWrites));
  for (int i = 0; i < kWrites; ++i) {
    if (!slots[static_cast<std::size_t>(i)]->wait().ok()) continue;
    std::vector<std::byte> back(kBlock);
    ASSERT_EQ(ion.svc.pfs().read("/crash." + std::to_string(i % 4),
                                 static_cast<std::uint64_t>(i / 4) * kBlock,
                                 kBlock, back, 1.0),
              kBlock)
        << "acked write " << i << " missing from the PFS";
    EXPECT_EQ(back, std::vector<std::byte>(kBlock, static_cast<std::byte>(i)));
  }
}

// Sequential FIFO ops over TCP are dispatched on the reader thread:
// every op is dispatched once, by the reader or (when the worker held
// the shard for a poll) by the worker.
TEST_P(InlineDispatch, SequentialFifoOpsGoInline) {
  telemetry::Registry reg;
  TcpIon ion(reg, fifo_workers(reg, GetParam()));
  constexpr int kOps = 64;
  for (int i = 0; i < kOps / 2; ++i) {
    const auto offset = static_cast<std::uint64_t>(i) * kBlock;
    ASSERT_TRUE(ion.stub.wait(*ion.write("/seq", offset, std::byte{7}), 0.0)
                    ->ok());
    ASSERT_EQ(ion.read("/seq", offset),
              std::vector<std::byte>(kBlock, std::byte{7}));
  }
  ion.svc.daemon(0).drain();
  const double inline_ops = counter_sum(reg, "fwd.ion.inline_dispatches");
  const double dispatches = counter_sum(reg, "fwd.ion.dispatches");
  EXPECT_GT(inline_ops, 0.0);
  // FIFO never aggregates: one dispatch per op, whichever thread ran it.
  EXPECT_EQ(dispatches, kOps);
  EXPECT_LE(inline_ops, dispatches);
}

// Reads of fsynced, wholly clean blocks are served from the PFS on the
// reader thread: the read bucket covers each charge, so no step waits.
// A read the worker happened to hold the shard for takes the queue.
TEST_P(InlineDispatch, CleanFsyncedReadsGoInline) {
  telemetry::Registry reg;
  TcpIon ion(reg, fifo_workers(reg, GetParam()));
  constexpr int kReads = 32;
  const auto offset = [](int i) {
    return static_cast<std::uint64_t>(i) * kBlock;
  };
  for (int i = 0; i < kReads; ++i) {
    ASSERT_TRUE(ion.stub.wait(*ion.write("/clean", offset(i),
                                         static_cast<std::byte>(i)),
                              0.0)
                    ->ok());
  }
  ASSERT_TRUE(ion.fsync("/clean"));
  const double inline_before = counter_sum(reg, "fwd.ion.inline_dispatches");
  for (int i = 0; i < kReads; ++i) {
    ASSERT_EQ(ion.read("/clean", offset(i)),
              std::vector<std::byte>(kBlock, static_cast<std::byte>(i)))
        << "block " << i;
  }
  const double inline_reads =
      counter_sum(reg, "fwd.ion.inline_dispatches") - inline_before;
  EXPECT_GE(inline_reads, kReads / 2);
  EXPECT_LE(inline_reads, kReads);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.reads_pfs"), kReads);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.reads_local"), 0.0);
  EXPECT_EQ(counter_sum(reg, "fwd.pfs.read_ops"), kReads);
  EXPECT_EQ(counter_sum(reg, "fwd.pfs.bytes_read"), kReads * kBlock);
}

// The pfs.read leg of DrawnStallsAreServedByTheWorker: a daemon whose
// fault plan names pfs.read serves every read on the worker, inside
// the stall window and after it, and each read draws the site once.
TEST_P(InlineDispatch, DrawnPfsReadStallsAreServedByTheWorker) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.stall(fault::kPfsReadSite, 0.0, 0.002);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = fifo_workers(reg, GetParam());
  cfg.injector = &injector;
  TcpIon ion(reg, cfg);
  constexpr int kOps = 16;
  const auto offset = [](int i) {
    return static_cast<std::uint64_t>(i) * kBlock;
  };
  for (int i = 0; i < 2 * kOps; ++i) {
    ASSERT_TRUE(
        ion.stub.wait(*ion.write("/pstall", offset(i), std::byte{4}), 0.0)
            ->ok());
  }
  ASSERT_TRUE(ion.fsync("/pstall"));
  for (int i = 0; i < 2 * kOps; ++i) {
    if (i == kOps) clock.set(1.0);  // the window closes
    ASSERT_EQ(ion.read("/pstall", offset(i)),
              std::vector<std::byte>(kBlock, std::byte{4}))
        << "block " << i;
  }
  ion.svc.daemon(0).drain();
  EXPECT_EQ(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0)
      << "a request of a pfs.read-faulted daemon ran on the reader";
  EXPECT_EQ(counter_sum(reg, "fwd.ion.reads_pfs"), 2 * kOps);
  EXPECT_EQ(injector.checks(fault::kPfsReadSite), 2u * kOps);
  EXPECT_EQ(injector.injected(fault::kPfsReadSite),
            static_cast<std::uint64_t>(kOps));
}

// A clean read whose PFS charge is past the read bucket's burst can
// never be paid up front (try_acquire refuses such a charge outright),
// and a blocking charge would sleep on the reader. It queues: the
// worker pays it while the reader goes on. At four workers, writes of
// other files offered behind it on the same link are answered while it
// is still charging, which a reader asleep in the charge could not do.
TEST_P(InlineDispatch, ReadChargedPastTheReadBurstQueues) {
  telemetry::Registry reg;
  ServiceConfig cfg = fifo_workers(reg, GetParam());
  // An 8 MiB read burst and a 32 MiB surcharge per request: the worker
  // waits ~0.13 s for each read's tokens.
  cfg.pfs.read_bandwidth = 200.0e6;
  cfg.pfs.op_overhead = 32 << 20;
  TcpIon ion(reg, cfg);
  ASSERT_TRUE(ion.stub.wait(*ion.write("/big", 0, std::byte{6}), 0.0)->ok());
  ASSERT_TRUE(ion.fsync("/big"));
  const double inline_before = counter_sum(reg, "fwd.ion.inline_dispatches");
  ASSERT_EQ(ion.read("/big", 0), std::vector<std::byte>(kBlock, std::byte{6}));
  EXPECT_EQ(counter_sum(reg, "fwd.ion.inline_dispatches"), inline_before)
      << "a read charged past the burst ran on the reader";

  const auto [slot, dst] = ion.issue_read("/big", 0);
  constexpr int kWrites = 8;
  std::vector<std::shared_ptr<WaitSlot>> writes;
  for (int i = 0; i < kWrites; ++i) {
    writes.push_back(ion.write("/other." + std::to_string(i), 0, std::byte{1}));
  }
  // Waiting for the read receives every response sent before its own.
  ASSERT_TRUE(ion.stub.wait(*slot, 0.0)->ok());
  EXPECT_EQ(std::vector<std::byte>(dst.span().begin(), dst.span().end()),
            std::vector<std::byte>(kBlock, std::byte{6}));
  int answered_first = 0;
  for (const auto& w : writes) {
    if (w->wait_for(0.0)) ++answered_first;
  }
  for (const auto& w : writes) ASSERT_TRUE(ion.stub.wait(*w, 0.0)->ok());
  // One worker sleeps in the charge with the only shard locked, so the
  // writes wait for it; at four, some write lands on another shard.
  if (GetParam() > 1) {
    EXPECT_GT(answered_first, 0) << "the reader waited for the PFS charge";
  }
  EXPECT_EQ(counter_sum(reg, "fwd.ion.reads_pfs"), 2.0);
  EXPECT_EQ(counter_sum(reg, "fwd.pfs.read_ops"), 2.0);
}

// crash() racing inline clean reads: every read ends in exactly one
// answer (ok, ION down or refused) that matches its ledger bucket, and
// each one served returns its block (the read leg of
// CrashRacingInlineDispatchesCompletesEachRequestOnce). The batch
// starts on an idle shard: a worker still finishing the fsync round
// would turn the first read away to its queue, and every later read
// would then queue behind it.
TEST_P(InlineDispatch, CrashRacingInlineCleanReadsCompletesEachRequestOnce) {
  telemetry::Registry reg;
  TcpIon ion(reg, fifo_workers(reg, GetParam()));
  constexpr int kReads = 256;
  const auto path = [](int i) { return "/rcrash." + std::to_string(i % 4); };
  const auto offset = [](int i) {
    return static_cast<std::uint64_t>(i / 4) * kBlock;
  };
  for (int i = 0; i < kReads; ++i) {
    ASSERT_TRUE(ion.stub.wait(*ion.write(path(i), offset(i),
                                         static_cast<std::byte>(i)),
                              0.0)
                    ->ok());
  }
  for (int f = 0; f < 4; ++f) ASSERT_TRUE(ion.fsync(path(f)));
  // Read block 0 until a read runs inline. That read found the first
  // batch read's shard idle: its dispatch lock free and nothing
  // unscheduled on it. Inline reads push nothing, so that worker stays
  // asleep until the batch queues a request of its own.
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 10000) << "the shard never went idle";
    const double inline_seen = counter_sum(reg, "fwd.ion.inline_dispatches");
    ASSERT_EQ(ion.read(path(0), offset(0)),
              std::vector<std::byte>(kBlock, std::byte{0}));
    if (counter_sum(reg, "fwd.ion.inline_dispatches") > inline_seen) break;
  }
  const double inline_before = counter_sum(reg, "fwd.ion.inline_dispatches");
  const double admitted_before = counter_sum(reg, "qos.tenant.admitted");
  const double reads_pfs_before = counter_sum(reg, "fwd.ion.reads_pfs");
  const std::size_t answered_before = ion.link.responses().size();
  std::vector<std::pair<std::shared_ptr<WaitSlot>, Payload>> reads;
  for (int i = 0; i < kReads; ++i) {
    reads.push_back(ion.issue_read(path(i), offset(i)));
    if (i == kReads / 4) {
      ASSERT_TRUE(ion.stub.wait(*reads.front().first, 0.0)->ok());
      ion.svc.daemon(0).crash();
    }
  }
  int ok = 0, down = 0, refused = 0;
  for (int i = 0; i < kReads; ++i) {
    const auto& [slot, dst] = reads[static_cast<std::size_t>(i)];
    const auto done = ion.stub.wait(*slot, 0.0);
    ASSERT_TRUE(done.has_value());
    switch (done->status) {
      case CompletionStatus::kOk:
        ++ok;
        EXPECT_EQ(std::vector<std::byte>(dst.span().begin(), dst.span().end()),
                  std::vector<std::byte>(kBlock, static_cast<std::byte>(i)))
            << "read " << i;
        break;
      case CompletionStatus::kIonDown: ++down; break;
      case CompletionStatus::kRejected: ++refused; break;
      default: ADD_FAILURE() << static_cast<int>(done->status);
    }
  }
  ion.svc.daemon(0).drain();
  ion.close();
  EXPECT_GT(ok, 0);
  EXPECT_GT(refused, 0);
  EXPECT_EQ(ok + down + refused, kReads);
  EXPECT_GT(counter_sum(reg, "fwd.ion.inline_dispatches"), inline_before);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.admitted") - admitted_before, ok);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.failed"), down);
  EXPECT_EQ(counter_sum(reg, "qos.tenant.expired"), 0.0);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.reads_pfs") - reads_pfs_before, ok);
  for (const auto& [id, n] : ion.link.responses()) {
    EXPECT_EQ(n, 1) << "request " << id;
  }
  EXPECT_EQ(ion.link.responses().size(),
            answered_before + static_cast<std::size_t>(kReads));
}

INSTANTIATE_TEST_SUITE_P(Workers, InlineDispatch, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "w";
                           name += std::to_string(info.param);
                           return name;
                         });

// A scheduler that may hold requests back (TO-AGG) and the
// tenant-weighted QoS scheduler always take the queue path.
TEST(InlineDispatchEligibility, AggregatingAndQosDaemonsNeverDispatchInline) {
  for (const bool qos : {false, true}) {
    telemetry::Registry reg;
    ServiceConfig cfg = fifo_workers(reg, 1);
    if (qos) {
      qos::TenantSpec tenant;
      tenant.name = "drill";
      cfg.qos.enabled = true;
      cfg.qos.tenants.push_back(tenant);
    } else {
      cfg.ion.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
      cfg.ion.scheduler.aggregation_window = 1e-4;
    }
    TcpIon ion(reg, cfg);
    for (int i = 0; i < 16; ++i) {
      const auto offset = static_cast<std::uint64_t>(i) * kBlock;
      ASSERT_TRUE(
          ion.stub.wait(*ion.write("/agg", offset, std::byte{9}), 0.0)->ok());
      ASSERT_EQ(ion.read("/agg", offset),
                std::vector<std::byte>(kBlock, std::byte{9}));
    }
    ion.svc.daemon(0).drain();
    EXPECT_EQ(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0)
        << (qos ? "qos" : "to-agg");
    EXPECT_EQ(counter_sum(reg, "fwd.ion.requests"), 32.0);
  }
}

// A read the PFS must serve runs on the reader thread only while the
// PFS read bucket covers its whole charge: with a slow PFS and four
// shards, a burst of such reads on one link spends the bucket's burst
// and then has to pile up in the ION's queues, where admission control
// sees it and answers IonBusy. A reader that served them all itself
// would sleep in each PFS read, and the burst would wait unseen in the
// socket instead.
TEST(InlineDispatchEligibility, PfsReadsQueueWhereAdmissionSeesTheBacklog) {
  telemetry::Registry reg;
  ServiceConfig cfg = fifo_workers(reg, 4);
  // Each read charges exactly 1 MiB (size + op_overhead, contention 1
  // while only the reader charges) and the bucket refills 1 MiB in
  // ~33 ms, so once the burst is spent each PFS read takes that long,
  // and refill during the reader's inline streak cannot buy it another
  // inline read.
  cfg.pfs.read_bandwidth = 32.0e6;
  cfg.pfs.op_overhead = (1 << 20) - kBlock;
  const double read_charge =
      static_cast<double>(kBlock + cfg.pfs.op_overhead);
  cfg.ion.queue_capacity = 4;
  cfg.ion.admission.enabled = true;
  cfg.ion.admission.queue_high_watermark = 0.5;  // 8 of 16 slots
  TcpIon ion(reg, cfg);
  // The read bucket's burst (8 MiB here) is a whole number of charges,
  // so no remainder of it plus a little refill covers one more.
  const double read_burst = ion.svc.pfs().read_burst();
  ASSERT_EQ(std::fmod(read_burst, read_charge), 0.0);
  constexpr int kFiles = 8;
  constexpr int kReads = 64;
  const auto path = [](int i) { return "/slow." + std::to_string(i % kFiles); };
  const auto offset = [](int i) {
    return static_cast<std::uint64_t>(i / kFiles) * kBlock;
  };
  for (int i = 0; i < kReads; ++i) {
    ASSERT_TRUE(ion.stub.wait(*ion.write(path(i), offset(i), std::byte{5}), 0.0)
                    ->ok());
  }
  ion.svc.daemon(0).drain();  // every block is on the PFS and clean
  const double inline_writes = counter_sum(reg, "fwd.ion.inline_dispatches");

  std::vector<std::shared_ptr<WaitSlot>> slots;
  std::vector<Payload> dsts;
  for (int i = 0; i < kReads; ++i) {
    FwdRequest r;
    r.op = FwdOp::Read;
    r.file_id = gkfs::hash_path(path(i));
    r.offset = offset(i);
    r.size = kBlock;
    r.payload = ion.svc.acquire_payload(kBlock);
    dsts.push_back(r.payload);
    slots.push_back(wait_on(r));
    ion.stub.issue(std::move(r));
  }
  int ok = 0, busy = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto done = ion.stub.wait(*slots[i], 0.0);
    ASSERT_TRUE(done.has_value());
    if (done->ok()) {
      ++ok;
      EXPECT_EQ(std::vector<std::byte>(dsts[i].span().begin(),
                                       dsts[i].span().end()),
                std::vector<std::byte>(kBlock, std::byte{5}));
    } else {
      ASSERT_EQ(done->status, CompletionStatus::kRejected);
      ++busy;
    }
  }
  // Reads run inline only on tokens the bucket holds: its burst. Once
  // the first read queues, the workers' blocking charges hold the bucket
  // in debt, so its refill never reaches the reader.
  EXPECT_LE(counter_sum(reg, "fwd.ion.inline_dispatches") - inline_writes,
            std::floor(read_burst / read_charge))
      << "a clean read ran on the reader past the read bucket's burst";
  EXPECT_GT(ok, 0);
  EXPECT_GT(busy, 0) << "admission never saw the backlog";
  EXPECT_EQ(counter_sum(reg, "fwd.overload.busy"), busy);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.reads_pfs"), ok);
}

// A fault stall drawn for a request is slept by the worker, never by
// the reader: a daemon whose fault plan names a site the dispatch
// draws serves every request on the worker, inside the stall window
// and after it. Each request draws each fault site exactly once.
TEST(InlineDispatchEligibility, DrawnStallsAreServedByTheWorker) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.stall(fault::request_site(0), 0.0, 0.002);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = fifo_workers(reg, 1);
  cfg.injector = &injector;
  TcpIon ion(reg, cfg);
  constexpr int kOps = 16;
  for (int i = 0; i < 2 * kOps; ++i) {
    if (i == kOps) clock.set(1.0);  // the window closes
    const auto offset = static_cast<std::uint64_t>(i) * kBlock;
    ASSERT_TRUE(
        ion.stub.wait(*ion.write("/stall", offset, std::byte{3}), 0.0)->ok());
  }
  ion.svc.daemon(0).drain();
  EXPECT_EQ(injector.checks(fault::ion_site(0)), 2u * kOps);
  EXPECT_EQ(injector.checks(fault::request_site(0)), 2u * kOps);
  EXPECT_EQ(injector.injected(fault::request_site(0)),
            static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0)
      << "a request of a faulted daemon ran on the reader";
  EXPECT_EQ(counter_sum(reg, "fwd.ion.dispatches"), 2 * kOps);
}

// Only this daemon's dispatch sites bar inline dispatch: a plan that
// scripts another ION's request site and this ION's request frames
// leaves ion 0 dispatching inline.
TEST(InlineDispatchEligibility, OtherSitesLeaveTheDaemonInline) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.stall(fault::request_site(1), 0.0, 1.0);
  plan.delay_msg(fault::rpc_req_site(0), 1u << 30, 0.001);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = fifo_workers(reg, 1);
  cfg.injector = &injector;
  TcpIon ion(reg, cfg);
  constexpr int kOps = 16;
  for (int i = 0; i < kOps; ++i) {
    const auto offset = static_cast<std::uint64_t>(i) * kBlock;
    ASSERT_TRUE(
        ion.stub.wait(*ion.write("/other", offset, std::byte{2}), 0.0)->ok());
  }
  ion.svc.daemon(0).drain();
  EXPECT_GT(counter_sum(reg, "fwd.ion.inline_dispatches"), 0.0);
  EXPECT_EQ(injector.checks(fault::request_site(0)),
            static_cast<std::uint64_t>(kOps));
}

// --- leader/follower receive on the client side ------------------------------

/// One counter of one link ("ion.0", "mapping").
double link_counter(telemetry::Registry& reg, const std::string& name,
                    const std::string& link) {
  const auto snap = reg.snapshot();
  const auto* s = snap.find(name, {{"link", link}});
  return s ? s->value : 0.0;
}

/// A one-ION TCP deployment whose ack window is far longer than any
/// answer takes, so a call left without a receiver shows as a resend.
ServiceConfig tcp_no_resend(telemetry::Registry& reg) {
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = rpc::TransportKind::kTcp;
  cfg.rpc.ack_timeout = 5.0;
  return cfg;
}

constexpr std::uint64_t kOp = 16 * 1024;

// A lone caller is always the leader: it reads every answer itself, so
// it never sleeps while another thread receives, and nothing is resent.
TEST(LeaderFollower, LoneCallerReadsEveryAnswerItself) {
  telemetry::Registry reg;
  ForwardingService svc(tcp_no_resend(reg));
  map_job_7(svc);
  Client client(job_7(reg, /*request_timeout=*/0.0), svc);
  for (int i = 0; i < 200; ++i) {
    const auto offset = static_cast<std::uint64_t>(i % 16) * kOp;
    const auto data = pattern_data(kOp, static_cast<std::uint64_t>(i));
    ASSERT_EQ(client.pwrite(0, "/lone", offset, kOp, data), kOp);
    std::vector<std::byte> out(kOp);
    ASSERT_EQ(client.pread(0, "/lone", offset, kOp, out), kOp);
    ASSERT_EQ(out, data) << "pair " << i;
  }
  EXPECT_GE(link_counter(reg, "rpc.frames_recv", "ion.0"), 800.0);
  EXPECT_EQ(counter_sum(reg, "rpc.follower_waits"), 0.0);
  EXPECT_EQ(counter_sum(reg, "rpc.retries"), 0.0);
}

// Four callers share one link and take turns reading it for each
// other. Every call is answered by exactly one response frame, none is
// resent, and each read returns what its caller wrote. The callers stop
// one after another, so a leader often leaves for good while the others
// sleep: without its handoff they would wait out the 5 s ack window.
TEST(LeaderFollower, SharedLinkSettlesEveryCallOnce) {
  telemetry::Registry reg;
  ForwardingService svc(tcp_no_resend(reg));
  map_job_7(svc);
  constexpr int kThreads = 4;
  constexpr int kPairs = 25;  // caller t does (t + 1) * kPairs
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      Client client(job_7(reg, /*request_timeout=*/0.0), svc);
      const std::string path = "/shared." + std::to_string(t);
      for (int i = 0; i < (t + 1) * kPairs; ++i) {
        const auto offset = static_cast<std::uint64_t>(i % 8) * kOp;
        const auto data =
            pattern_data(kOp, static_cast<std::uint64_t>(t * 1000 + i));
        std::vector<std::byte> out(kOp);
        if (client.pwrite(0, path, offset, kOp, data) != kOp ||
            client.pread(0, path, offset, kOp, out) != kOp || out != data) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  svc.drain();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(counter_sum(reg, "rpc.retries"), 0.0);
  EXPECT_EQ(counter_sum(reg, "rpc.dedup_hits"), 0.0);
  // Each request is one frame each way: the server receives it, the
  // stub receives its one answer.
  const double requests = counter_sum(reg, "fwd.ion.requests");
  EXPECT_GE(requests, 2.0 * kPairs * (1 + 2 + 3 + 4));
  EXPECT_EQ(link_counter(reg, "rpc.frames_sent", "ion.0"), 2.0 * requests);
  EXPECT_EQ(link_counter(reg, "rpc.frames_recv", "ion.0"), 2.0 * requests);
  EXPECT_EQ(dynamic_cast<RpcIonClient&>(svc.ion_port(0)).pending_calls(), 0u);
}

// The handoff itself. Caller A leads while every dispatch stalls 0.5 s,
// and caller B, arriving while A reads the link, sleeps. A's answer
// comes first and A leaves; B's comes 0.5 s later, so B gets it without
// a resend only if A woke B to read the link. Otherwise B would sleep
// out its 5 s ack window.
TEST(LeaderFollower, LeaderHandsTheRoleToASleepingFollower) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.stall(fault::request_site(0), 1.0, 0.5);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = tcp_no_resend(reg);
  cfg.transport = rpc::TransportKind::kInProc;  // this link is the wire
  cfg.injector = &injector;
  ForwardingService svc(cfg);
  rpc::TcpTransport link;
  RpcIonServer server(link, svc, 0, &reg);
  RpcIonClient stub(link, 0, cfg.rpc, /*seed=*/1, &reg);
  clock.set(1.0);  // every dispatch stalls
  const auto a = issue_write(svc, stub, "/a", 0, kBlock, std::byte{1});
  std::optional<Completion> a_done, b_done;
  std::thread leader([&] { a_done = stub.wait(*a, 0.0); });
  // A holds the receive lock once it leads. No answer exists before the
  // stall ends, so this probe cannot take one from A.
  const Seconds give_up = monotonic_seconds() + 5.0;
  bool a_leads = false;
  while (!a_leads && monotonic_seconds() < give_up) {
    a_leads = link.receive(rpc::kClientSide, monotonic_seconds()) ==
              rpc::Received::kBusy;
  }
  const auto b = issue_write(svc, stub, "/b", 0, kBlock, std::byte{2});
  std::thread follower([&] { b_done = stub.wait(*b, 0.0); });
  leader.join();
  follower.join();
  svc.daemon(0).shutdown();
  link.close();
  EXPECT_TRUE(a_leads);
  EXPECT_TRUE(a_done && a_done->ok());
  EXPECT_TRUE(b_done && b_done->ok());
  EXPECT_EQ(counter_sum(reg, "rpc.follower_waits"), 1.0);
  EXPECT_EQ(counter_sum(reg, "rpc.retries"), 0.0);
}

/// Runs `body` on its own thread; a body still running after `limit`
/// (a deadlock) fails the test and ends the process rather than hang.
template <typename Body>
void run_with_watchdog(std::chrono::seconds limit, const std::string& what,
                       Body body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << what << " still running after " << limit.count()
                  << " s (deadlock)";
    std::fflush(nullptr);
    std::_Exit(EXIT_FAILURE);
  }
  runner.join();
}

/// The largest buffer size in /proc/sys/net/ipv4/tcp_{r,w}mem ("min
/// default max"); 6 MiB when the file cannot be read.
std::uint64_t tcp_buffer_max(const std::string& file) {
  std::ifstream in("/proc/sys/net/ipv4/" + file);
  std::uint64_t min = 0, def = 0, max = 0;
  return (in >> min >> def >> max) ? max : 6u << 20;
}

// Liveness: one thread issues reads on one link without waiting until
// their answers outsize the loopback socket buffers, so the server
// blocks sending them and stops reading requests. The thread then
// issues as many bytes of writes, which fill the socket the other way.
// Its sends must read the waiting answers while they wait for room, or
// client and server wait for each other forever. Then every call is
// waited for.
TEST(LeaderFollower, UnwaitedReadsPastTheSocketBuffersAllSettle) {
  telemetry::Registry reg;
  ServiceConfig cfg = tcp_no_resend(reg);
  cfg.rpc.ack_timeout = 30.0;
  ForwardingService svc(cfg);
  auto& stub = dynamic_cast<RpcIonClient&>(svc.ion_port(0));
  constexpr std::uint64_t kOpBytes = 64 * 1024;
  constexpr int kBlocks = 16;
  const auto write_block = [&](int b) {
    FwdRequest w;
    w.op = FwdOp::Write;
    w.path = "/burst";
    w.file_id = gkfs::hash_path(w.path);
    w.offset = static_cast<std::uint64_t>(b) * kOpBytes;
    w.size = kOpBytes;
    w.payload = svc.acquire_payload(kOpBytes);
    std::fill(w.payload.span().begin(), w.payload.span().end(),
              static_cast<std::byte>(b));
    auto slot = wait_on(w);
    stub.issue(std::move(w));
    return slot;
  };
  for (int b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(stub.wait(*write_block(b), 0.0)->ok());
  }
  const std::uint64_t buffered =
      tcp_buffer_max("tcp_rmem") + tcp_buffer_max("tcp_wmem");
  const int burst = static_cast<int>(buffered / kOpBytes) + kBlocks;
  int ok = 0, refused = 0, other = 0;
  run_with_watchdog(std::chrono::seconds(60), "unwaited burst", [&] {
    std::vector<std::shared_ptr<WaitSlot>> slots;
    std::vector<Payload> dsts;
    for (int i = 0; i < burst; ++i) {
      FwdRequest r;
      r.op = FwdOp::Read;
      r.file_id = gkfs::hash_path("/burst");
      r.offset = static_cast<std::uint64_t>(i % kBlocks) * kOpBytes;
      r.size = kOpBytes;
      r.payload = svc.acquire_payload(kOpBytes);
      dsts.push_back(r.payload);
      slots.push_back(wait_on(r));
      stub.issue(std::move(r));
    }
    for (int i = 0; i < burst; ++i) slots.push_back(write_block(kBlocks + i));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const auto done = stub.wait(*slots[i], 0.0);
      const bool read = i < dsts.size();
      if (done && done->ok() && done->value == kOpBytes &&
          (!read || std::all_of(dsts[i].span().begin(), dsts[i].span().end(),
                                [&](std::byte b) {
                                  return b == static_cast<std::byte>(
                                                  i % kBlocks);
                                }))) {
        ++ok;
      } else if (done && done->status == CompletionStatus::kRejected) {
        ++refused;
      } else {
        ++other;
      }
    }
  });
  svc.drain();
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + refused, 2 * burst);
  EXPECT_EQ(other, 0);
  EXPECT_EQ(stub.pending_calls(), 0u);
  EXPECT_EQ(counter_sum(reg, "rpc.retries"), 0.0);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.slab.acquired"),
            counter_sum(reg, "fwd.ion.slab.released"));
}

// Answers nobody waits for must not stall shutdown. Chunk-sized reads
// are issued and never waited for, and each draws a stall, so the
// daemon's worker serves and answers them, not the link's reader. Their
// answers outsize the socket buffers, so the worker blocks sending
// them. shutdown() joins the workers before it closes the links, so it
// must read each client side while it does.
TEST(LeaderFollower, ShutdownDrainsAnswersNobodyWaitsFor) {
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.stall(fault::request_site(0), 1.0, 1e-3);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);
  ServiceConfig cfg = tcp_no_resend(reg);
  cfg.injector = &injector;
  ForwardingService svc(cfg);
  auto& stub = dynamic_cast<RpcIonClient&>(svc.ion_port(0));
  const std::uint64_t chunk = gkfs::kChunkSize;
  FwdRequest w;
  w.op = FwdOp::Write;
  w.path = "/unread";
  w.file_id = gkfs::hash_path(w.path);
  w.size = chunk;
  w.payload = svc.acquire_payload(chunk);
  auto written = wait_on(w);
  stub.issue(std::move(w));
  ASSERT_TRUE(stub.wait(*written, 0.0)->ok());
  const std::uint64_t buffered =
      tcp_buffer_max("tcp_rmem") + tcp_buffer_max("tcp_wmem");
  const int burst = static_cast<int>(buffered / chunk) + 4;
  clock.set(1.0);  // every dispatch stalls: the worker answers each
  for (int i = 0; i < burst; ++i) {
    FwdRequest r;
    r.op = FwdOp::Read;
    r.file_id = gkfs::hash_path("/unread");
    r.size = chunk;
    r.payload = svc.acquire_payload(chunk);
    wait_on(r);  // dropped at once: nobody waits for this call
    stub.issue(std::move(r));
  }
  run_with_watchdog(std::chrono::seconds(60), "shutdown with unread answers",
                    [&] { svc.shutdown(); });
  // Every request left, and every one was answered before the link shut.
  EXPECT_EQ(link_counter(reg, "rpc.frames_sent", "ion.0"), 2.0 * (1 + burst));
  EXPECT_EQ(counter_sum(reg, "rpc.retries"), 0.0);
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

// Accounting-only mode is one switch, the PFS's store_data: a
// deployment that sets only it moves sizes, not bytes. Forwarded writes
// and reads handed no caller buffers take no payload slab on either end
// of the link, so the server answers a read without a buffer to fill.
TEST_P(ServiceFrames, AccountingOnlyPfsTakesNoSlab) {
  telemetry::Registry reg;
  ServiceConfig cfg = fast_config(reg);
  cfg.transport = GetParam();
  cfg.pfs.store_data = false;
  ForwardingService svc(cfg);
  map_job_7(svc);
  Client client(job_7(reg, /*request_timeout=*/0.0), svc);

  constexpr std::uint64_t kBlocks = 8;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(client.pwrite(0, "/acct", b * kBlock, kBlock), kBlock);
    EXPECT_EQ(client.pread(0, "/acct", b * kBlock, kBlock), kBlock);  // staged
  }
  client.fsync("/acct");
  for (std::uint64_t b = 0; b < kBlocks; ++b) {  // now served by the PFS
    EXPECT_EQ(client.pread(0, "/acct", b * kBlock, kBlock), kBlock);
  }
  svc.drain();
  EXPECT_EQ(svc.pfs().bytes_written(), kBlocks * kBlock);
  EXPECT_EQ(counter_sum(reg, "fwd.ion.slab.acquired"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ServiceFrames,
    ::testing::Values(rpc::TransportKind::kInProc, rpc::TransportKind::kTcp),
    [](const ::testing::TestParamInfo<rpc::TransportKind>& info) {
      return std::string(rpc::to_string(info.param));
    });

}  // namespace
}  // namespace iofa::fwd
