// Transport layer: the Transport implementations behind one interface
// (synchronous loopback and TCP, pushed and caller-driven sides), the
// ChaosTransport decorator's verb semantics, and the option/env
// plumbing that selects between them. Everything here is below the
// endpoint layer - frames are opaque byte vectors; the dedup/retry
// discipline is exercised by fault_scenarios_test against a full
// ForwardingService.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "fault/clock.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fwd/service.hpp"
#include "rpc/chaos.hpp"
#include "rpc/options.hpp"
#include "rpc/transport.hpp"

namespace iofa::rpc {
namespace {

std::vector<std::byte> frame_of(int tag, std::size_t len = 4) {
  std::vector<std::byte> f(len);
  for (std::size_t i = 0; i < len; ++i) {
    f[i] = static_cast<std::byte>((tag + static_cast<int>(i)) & 0xFF);
  }
  return f;
}

// --- Transport implementations -------------------------------------------

TEST(LoopbackTransport, DeliversBothDirectionsSynchronously) {
  LoopbackTransport t;
  std::vector<std::vector<std::byte>> at_server, at_client;
  t.set_handler(kServerSide,
                [&](std::vector<std::byte> f) { at_server.push_back(f); });
  t.set_handler(kClientSide,
                [&](std::vector<std::byte> f) { at_client.push_back(f); });
  t.send(kClientSide, frame_of(1));
  t.send(kServerSide, frame_of(2));
  ASSERT_EQ(at_server.size(), 1u);
  EXPECT_EQ(at_server[0], frame_of(1));
  ASSERT_EQ(at_client.size(), 1u);
  EXPECT_EQ(at_client[0], frame_of(2));
  t.close();
  t.send(kClientSide, frame_of(3));  // dropped, not delivered
  EXPECT_EQ(at_server.size(), 1u);
}

/// Shared stress body: N frames each way, FIFO per direction, nothing
/// lost. Runs against whatever make_transport() hands back, so every
/// frame transport satisfies the identical contract.
void exercise_duplex(Transport& t, int frames) {
  Mutex mu;
  CondVar cv;
  std::vector<std::vector<std::byte>> at_server, at_client;
  t.set_handler(kServerSide, [&](std::vector<std::byte> f) {
    MutexLock lk(mu);
    at_server.push_back(std::move(f));
    cv.notify_all();
  });
  t.set_handler(kClientSide, [&](std::vector<std::byte> f) {
    MutexLock lk(mu);
    at_client.push_back(std::move(f));
    cv.notify_all();
  });
  std::thread c2s([&] {  // iofa-lint: allow(raw-thread)
    for (int i = 0; i < frames; ++i) t.send(kClientSide, frame_of(i, 64));
  });
  std::thread s2c([&] {  // iofa-lint: allow(raw-thread)
    for (int i = 0; i < frames; ++i) {
      t.send(kServerSide, frame_of(i + 7, 48));
    }
  });
  c2s.join();
  s2c.join();
  {
    UniqueLock lk(mu);
    const auto deadline =
        monotonic_now() + std::chrono::duration_cast<MonotonicClock::duration>(
                              std::chrono::duration<double>(5.0));
    while (at_server.size() < static_cast<std::size_t>(frames) ||
           at_client.size() < static_cast<std::size_t>(frames)) {
      ASSERT_NE(cv.wait_until(lk, deadline), std::cv_status::timeout)
          << "server got " << at_server.size() << ", client got "
          << at_client.size();
    }
  }
  for (int i = 0; i < frames; ++i) {
    EXPECT_EQ(at_server[static_cast<std::size_t>(i)], frame_of(i, 64));
    EXPECT_EQ(at_client[static_cast<std::size_t>(i)], frame_of(i + 7, 48));
  }
  t.close();
}

TEST(TcpTransport, DuplexFifoDelivery) {
  auto t = make_transport(TransportKind::kTcp);
  exercise_duplex(*t, 500);
}

TEST(TcpTransport, FramesUpTo8MiBArriveWholeAndInOrderBothWays) {
  // Frames from 1 B to 8 MiB - far past the socket send buffer, so a
  // gathered write returns short and the send loop resumes mid-iovec -
  // sent concurrently in both directions. Each side must receive the
  // other's frames byte-for-byte, in send order.
  const std::vector<std::size_t> sizes = {
      1, 2, 3, 7, 31, 32, 33, 4096, 65535, 65537, 1u << 20,
      (1u << 20) + 3, 8u << 20, 5, (8u << 20) - 1, 100};
  std::vector<std::vector<std::byte>> sent[2];
  for (int side : {kClientSide, kServerSide}) {
    Rng rng(static_cast<std::uint64_t>(side) + 1);
    for (const std::size_t n : sizes) {
      std::vector<std::byte> f(n);
      for (std::size_t k = 0; k < n; k += 8) {
        const std::uint64_t word = rng.next();
        for (std::size_t j = k; j < std::min(n, k + 8); ++j) {
          f[j] = static_cast<std::byte>(word >> (8 * (j - k)));
        }
      }
      sent[side].push_back(std::move(f));
    }
  }
  auto t = make_transport(TransportKind::kTcp);
  Mutex mu;
  CondVar cv;
  std::vector<std::vector<std::byte>> got[2];
  for (int side : {kClientSide, kServerSide}) {
    t->set_handler(side, [&, side](std::vector<std::byte> f) {
      MutexLock lk(mu);
      got[side].push_back(std::move(f));
      cv.notify_all();
    });
  }
  std::vector<std::thread> senders;  // iofa-lint: allow(raw-thread)
  for (int side : {kClientSide, kServerSide}) {
    senders.emplace_back([&, side] {
      for (const auto& f : sent[side]) t->send(side, f);
    });
  }
  for (auto& s : senders) s.join();
  {
    UniqueLock lk(mu);
    const auto deadline =
        monotonic_now() + std::chrono::duration_cast<MonotonicClock::duration>(
                              std::chrono::duration<double>(60.0));
    while (got[kClientSide].size() < sizes.size() ||
           got[kServerSide].size() < sizes.size()) {
      ASSERT_NE(cv.wait_until(lk, deadline), std::cv_status::timeout)
          << "client got " << got[kClientSide].size() << ", server got "
          << got[kServerSide].size();
    }
  }
  t->close();
  for (int from : {kClientSide, kServerSide}) {
    const auto& at_peer = got[1 - from];
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ASSERT_EQ(at_peer[i].size(), sizes[i]) << "from " << from << " #" << i;
      EXPECT_TRUE(at_peer[i] == sent[from][i])
          << "from " << from << " #" << i;
    }
  }
}

TEST(TcpTransport, CloseRacingSendersIsClean) {
  // Two threads send in a loop while a third closes the link. The
  // frames outsize the socket buffers, so a sender is blocked inside
  // sendmsg when close() shuts the sockets down. That write must fail
  // quietly (no SIGPIPE, whose default action kills the process: a
  // plain write(2) dies here), close() must wait it out before it
  // releases the fds, and every send after close() is dropped.
  const std::vector<std::byte> frame(8u << 20, std::byte{0x5A});
  for (int round = 0; round < 10; ++round) {
    auto t = make_transport(TransportKind::kTcp);
    t->set_handler(kClientSide, [](std::vector<std::byte>) {});
    t->set_handler(kServerSide, [](std::vector<std::byte>) {});
    std::atomic<int> sent{0};
    std::vector<std::thread> threads;  // iofa-lint: allow(raw-thread)
    for (int side : {kClientSide, kServerSide}) {
      threads.emplace_back([&, side] {
        for (int i = 0; i < 8; ++i) {
          t->send(side, frame);
          sent.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&] {
      // Close mid-stream: after the senders are under way.
      while (sent.load() < 2) std::this_thread::yield();
      t->close();
    });
    for (auto& th : threads) th.join();
    t->send(kClientSide, frame_of(1));  // dropped, fd already gone
  }
}

TEST(Transport, MakeTransportRefusesInProcKinds) {
  EXPECT_THROW(make_transport(TransportKind::kInProc),
               std::invalid_argument);
  EXPECT_THROW(make_transport(TransportKind::kAuto),
               std::invalid_argument);
}

TEST(Transport, CloseIsIdempotentAndDropsLateSends) {
  auto t = make_transport(TransportKind::kTcp);
  std::atomic<int> got{0};
  t->set_handler(kServerSide,
                 [&](std::vector<std::byte>) { got.fetch_add(1); });
  t->set_handler(kClientSide, [&](std::vector<std::byte>) {});
  t->close();
  t->close();
  t->send(kClientSide, frame_of(1));  // silently dropped
  EXPECT_EQ(got.load(), 0);
}

// --- caller-driven delivery ------------------------------------------------

/// Frames collected by a handler, with the thread that ran it.
struct Inbox {
  Mutex mu;
  CondVar cv;
  std::vector<std::vector<std::byte>> frames IOFA_GUARDED_BY(mu);
  std::vector<std::thread::id> threads IOFA_GUARDED_BY(mu);

  Transport::Handler handler() {
    return [this](std::vector<std::byte> f) {
      MutexLock lk(mu);
      frames.push_back(std::move(f));
      threads.push_back(std::this_thread::get_id());
      cv.notify_all();
    };
  }
  std::size_t size() {
    MutexLock lk(mu);
    return frames.size();
  }
};

/// Calls receive(side, now) until another thread is seen holding the
/// side's receive lock; false after 5 s.
bool await_busy(Transport& t, int side) {
  const Seconds give_up = monotonic_seconds() + 5.0;
  while (monotonic_seconds() < give_up) {
    if (t.receive(side, monotonic_seconds()) == Received::kBusy) return true;
    std::this_thread::yield();
  }
  return false;
}

/// receive() on the client side until `deadline`, past the instants a
/// probe of await_busy() held the receive lock.
Received receive_past_probes(Transport& t, Seconds deadline) {
  Received r;
  do {
    r = t.receive(kClientSide, deadline);
  } while (r == Received::kBusy);
  return r;
}

TEST(CallerDrivenTcp, FramesArriveInFifoOrderOnlyInsideReceive) {
  auto t = make_transport(TransportKind::kTcp);
  Inbox client, server;
  EXPECT_TRUE(t->set_caller_driven_handler(kClientSide, client.handler()));
  t->set_handler(kServerSide, server.handler());
  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) t->send(kServerSide, frame_of(i, 100));
  sleep_for_seconds(0.05);  // time for a reader thread, had there been one
  EXPECT_EQ(client.size(), 0u) << "a frame arrived outside receive()";
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(t->receive(kClientSide, monotonic_seconds() + 5.0),
              Received::kFrame);
    ASSERT_EQ(client.size(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_EQ(t->receive(kClientSide, monotonic_seconds() + 0.01),
            Received::kTimeout);
  // A pushed side stays pushed, and receive() never reads it.
  EXPECT_FALSE(t->set_caller_driven_handler(kServerSide, server.handler()));
  EXPECT_EQ(t->receive(kServerSide, monotonic_seconds()), Received::kClosed);
  MutexLock lk(client.mu);
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(client.frames[static_cast<std::size_t>(i)], frame_of(i, 100));
    EXPECT_EQ(client.threads[static_cast<std::size_t>(i)],
              std::this_thread::get_id());
  }
}

TEST(CallerDrivenTcp, ConcurrentReceiveReportsBusy) {
  auto t = make_transport(TransportKind::kTcp);
  Inbox client, server;
  t->set_caller_driven_handler(kClientSide, client.handler());
  t->set_handler(kServerSide, server.handler());
  std::atomic<Received> got{Received::kTimeout};
  std::thread receiver([&] {  // iofa-lint: allow(raw-thread)
    got = receive_past_probes(*t, monotonic_seconds() + 30.0);
  });
  EXPECT_TRUE(await_busy(*t, kClientSide));
  t->send(kServerSide, frame_of(9));
  receiver.join();
  EXPECT_EQ(got.load(), Received::kFrame);
  ASSERT_EQ(client.size(), 1u);
}

TEST(CallerDrivenTcp, CloseRacingABlockedReceiverReturnsPromptly) {
  for (int round = 0; round < 20; ++round) {
    auto t = make_transport(TransportKind::kTcp);
    Inbox client, server;
    t->set_caller_driven_handler(kClientSide, client.handler());
    t->set_handler(kServerSide, server.handler());
    std::atomic<Received> got{Received::kFrame};
    std::thread receiver([&] {  // iofa-lint: allow(raw-thread)
      got = receive_past_probes(*t, monotonic_seconds() + 30.0);
    });
    EXPECT_TRUE(await_busy(*t, kClientSide));
    const Seconds t0 = monotonic_seconds();
    t->close();
    // close() returns only once the receiver left the fd, and it left
    // because the socket was shut, not at its 30 s deadline.
    EXPECT_LT(monotonic_seconds() - t0, 5.0);
    receiver.join();
    EXPECT_EQ(got.load(), Received::kClosed);
    EXPECT_EQ(t->receive(kClientSide, monotonic_seconds() + 30.0),
              Received::kClosed);
    EXPECT_EQ(client.size(), 0u);
  }
}

TEST(CallerDrivenTcp, BlockedSenderDeliversSoAnEchoingPeerCannotDeadlock) {
  // The server echoes every frame back. The client sends 16 MiB and
  // never calls receive(), so the echoes fill the client's socket, the
  // server's reader blocks sending them and stops reading, and the
  // client's own sends find a full socket. Only a sender that delivers
  // what arrives while it waits for room gets through.
  auto t = make_transport(TransportKind::kTcp);
  Inbox client;
  t->set_caller_driven_handler(kClientSide, client.handler());
  t->set_handler(kServerSide, [&](std::vector<std::byte> f) {
    t->send(kServerSide, f);
  });
  constexpr int kFrames = 64;
  constexpr std::size_t kLen = 256 * 1024;
  std::atomic<bool> sent{false};
  std::thread sender([&] {  // iofa-lint: allow(raw-thread)
    for (int i = 0; i < kFrames; ++i) t->send(kClientSide, frame_of(i, kLen));
    sent = true;
  });
  const Seconds give_up = monotonic_seconds() + 60.0;
  while (!sent.load() && monotonic_seconds() < give_up) {
    sleep_for_seconds(0.01);
  }
  ASSERT_TRUE(sent.load()) << "client and server deadlocked on full sockets";
  sender.join();
  EXPECT_GT(client.size(), 0u) << "the blocked sender delivered nothing";
  while (client.size() < static_cast<std::size_t>(kFrames) &&
         t->receive(kClientSide, monotonic_seconds() + 5.0) ==
             Received::kFrame) {
  }
  t->close();
  MutexLock lk(client.mu);
  ASSERT_EQ(client.frames.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_TRUE(client.frames[static_cast<std::size_t>(i)] ==
                frame_of(i, kLen))
        << "echo " << i;
  }
}

TEST(CallerDrivenTcp, ChaosForwardsReceiveAndLoopbackPushes) {
  ChaosTransport chaos(make_transport(TransportKind::kTcp), nullptr,
                       fault::rpc_req_site(0), fault::rpc_rsp_site(0));
  Inbox client, server;
  EXPECT_TRUE(chaos.set_caller_driven_handler(kClientSide, client.handler()));
  chaos.set_handler(kServerSide, server.handler());
  chaos.send(kServerSide, frame_of(4));
  EXPECT_EQ(chaos.receive(kClientSide, monotonic_seconds() + 5.0),
            Received::kFrame);
  EXPECT_EQ(client.size(), 1u);

  LoopbackTransport loop;
  Inbox pushed;
  EXPECT_FALSE(loop.set_caller_driven_handler(kClientSide, pushed.handler()));
  loop.send(kServerSide, frame_of(5));
  EXPECT_EQ(pushed.size(), 1u);
  EXPECT_EQ(loop.receive(kClientSide, monotonic_seconds()), Received::kClosed);
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(CallerDrivenTcp, ServiceStartsOneReaderThreadPerLink) {
  // k ION links plus the mapping link: only each server side has a
  // reader thread; the client sides are read by their waiting callers.
  constexpr int kIons = 3;
  std::size_t idle = thread_count();
  const auto threads_started = [&](TransportKind kind) {
    fwd::ServiceConfig cfg;
    cfg.ion_count = kIons;
    cfg.transport = kind;
    // A joined thread can stay listed for a moment after it exits.
    const Seconds give_up = monotonic_seconds() + 5.0;
    while (thread_count() > idle && monotonic_seconds() < give_up) {
      sleep_for_seconds(1e-3);
    }
    const std::size_t before = thread_count();
    fwd::ForwardingService svc(cfg);
    return thread_count() - before;
  };
  // A warm-up service first: a sanitizer runtime may start a helper
  // thread of its own at the first spawn.
  threads_started(TransportKind::kInProc);
  sleep_for_seconds(0.05);
  idle = thread_count();
  const std::size_t in_proc = threads_started(TransportKind::kInProc);
  const std::size_t tcp = threads_started(TransportKind::kTcp);
  EXPECT_EQ(tcp - in_proc, static_cast<std::size_t>(kIons + 1));
}

// --- ChaosTransport verb semantics ---------------------------------------

struct ChaosRig {
  explicit ChaosRig(fault::FaultPlan plan)
      : injector(std::move(plan), &clock) {
    auto inner = std::make_unique<LoopbackTransport>();
    chaos = std::make_unique<ChaosTransport>(std::move(inner), &injector,
                                             fault::rpc_req_site(0),
                                             fault::rpc_rsp_site(0));
    chaos->set_handler(kServerSide, [this](std::vector<std::byte> f) {
      at_server.push_back(std::move(f));
    });
    chaos->set_handler(kClientSide, [this](std::vector<std::byte> f) {
      at_client.push_back(std::move(f));
    });
  }

  fault::ManualFaultClock clock;
  fault::FaultInjector injector;
  std::unique_ptr<ChaosTransport> chaos;
  std::vector<std::vector<std::byte>> at_server, at_client;
};

TEST(ChaosTransport, DropSwallowsExactlyTheTriggeredFrame) {
  fault::FaultPlan plan;
  plan.drop_msg(fault::rpc_req_site(0), 2);  // the 2nd client frame
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1));
  rig.chaos->send(kClientSide, frame_of(2));
  rig.chaos->send(kClientSide, frame_of(3));
  ASSERT_EQ(rig.at_server.size(), 2u);
  EXPECT_EQ(rig.at_server[0], frame_of(1));
  EXPECT_EQ(rig.at_server[1], frame_of(3));
  EXPECT_EQ(rig.injector.injected(fault::rpc_req_site(0)), 1u);
}

TEST(ChaosTransport, DupDeliversTheFrameTwice) {
  fault::FaultPlan plan;
  plan.dup_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(5));
  ASSERT_EQ(rig.at_server.size(), 2u);
  EXPECT_EQ(rig.at_server[0], frame_of(5));
  EXPECT_EQ(rig.at_server[1], frame_of(5));
}

TEST(ChaosTransport, TruncateCutsToHalfPrefix) {
  fault::FaultPlan plan;
  plan.truncate_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1, 8));
  ASSERT_EQ(rig.at_server.size(), 1u);
  const auto full = frame_of(1, 8);
  const std::vector<std::byte> half(full.begin(), full.begin() + 4);
  EXPECT_EQ(rig.at_server[0], half);
}

TEST(ChaosTransport, ReorderSwapsWithTheNextFrame) {
  fault::FaultPlan plan;
  plan.reorder_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1));
  EXPECT_TRUE(rig.at_server.empty());  // held in the swap slot
  rig.chaos->send(kClientSide, frame_of(2));
  rig.chaos->send(kClientSide, frame_of(3));
  ASSERT_EQ(rig.at_server.size(), 3u);
  EXPECT_EQ(rig.at_server[0], frame_of(2));
  EXPECT_EQ(rig.at_server[1], frame_of(1));
  EXPECT_EQ(rig.at_server[2], frame_of(3));
}

TEST(ChaosTransport, HeldReorderFrameFlushesOnClose) {
  fault::FaultPlan plan;
  plan.reorder_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(9));
  EXPECT_TRUE(rig.at_server.empty());
  rig.chaos->close();
  ASSERT_EQ(rig.at_server.size(), 1u);
  EXPECT_EQ(rig.at_server[0], frame_of(9));
}

TEST(ChaosTransport, DelayStallsTheSendingThread) {
  fault::FaultPlan plan;
  plan.delay_msg(fault::rpc_req_site(0), 1, 0.05);
  ChaosRig rig(std::move(plan));
  const auto t0 = monotonic_now();
  rig.chaos->send(kClientSide, frame_of(1));
  const double elapsed =
      std::chrono::duration<double>(monotonic_now() - t0).count();
  EXPECT_GE(elapsed, 0.045);
  ASSERT_EQ(rig.at_server.size(), 1u);  // delayed, not lost
}

TEST(ChaosTransport, DirectionsUseTheirOwnSites) {
  fault::FaultPlan plan;
  plan.drop_msg(fault::rpc_rsp_site(0), 1);  // server->client only
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1));
  rig.chaos->send(kServerSide, frame_of(2));  // dropped
  rig.chaos->send(kServerSide, frame_of(3));
  EXPECT_EQ(rig.at_server.size(), 1u);
  ASSERT_EQ(rig.at_client.size(), 1u);
  EXPECT_EQ(rig.at_client[0], frame_of(3));
}

TEST(ChaosTransport, NullInjectorIsPassThrough) {
  auto inner = std::make_unique<LoopbackTransport>();
  ChaosTransport chaos(std::move(inner), nullptr, fault::rpc_req_site(0),
                       fault::rpc_rsp_site(0));
  std::vector<std::vector<std::byte>> got;
  chaos.set_handler(kServerSide,
                    [&](std::vector<std::byte> f) { got.push_back(f); });
  chaos.set_handler(kClientSide, [](std::vector<std::byte>) {});
  for (int i = 0; i < 10; ++i) chaos.send(kClientSide, frame_of(i));
  EXPECT_EQ(got.size(), 10u);
}

TEST(ChaosTransport, SameSeedSameDecisions) {
  // prob-triggered drops replay identically: the surviving frame set
  // is a pure function of (seed, site, check index).
  auto survivors = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.drop_msg_prob(fault::rpc_req_site(0), 0.4);
    ChaosRig rig(std::move(plan));
    for (int i = 0; i < 200; ++i) rig.chaos->send(kClientSide, frame_of(i));
    return rig.at_server;
  };
  const auto a = survivors(42);
  EXPECT_EQ(a, survivors(42));
  EXPECT_NE(a.size(), 200u);  // the plan actually dropped something
  EXPECT_NE(survivors(43), a);
}

// --- options / env plumbing ----------------------------------------------

TEST(RpcOptions, ParseTransportNames) {
  EXPECT_EQ(parse_transport("inproc"), TransportKind::kInProc);
  EXPECT_EQ(parse_transport("tcp"), TransportKind::kTcp);
  EXPECT_FALSE(parse_transport("").has_value());
  EXPECT_FALSE(parse_transport("udp").has_value());
  EXPECT_FALSE(parse_transport("TCP").has_value());
  EXPECT_FALSE(parse_transport("shm").has_value());
}

TEST(RpcOptions, ResolveTransportHonoursEnvironment) {
  // Explicit kinds ignore the environment entirely.
  ::setenv("IOFA_TRANSPORT", "tcp", 1);
  EXPECT_EQ(resolve_transport(TransportKind::kInProc),
            TransportKind::kInProc);
  // kAuto follows it.
  EXPECT_EQ(resolve_transport(TransportKind::kAuto), TransportKind::kTcp);
  // An unknown name, shm included, fails with the valid names listed.
  ::setenv("IOFA_TRANSPORT", "shm", 1);
  try {
    resolve_transport(TransportKind::kAuto);
    ADD_FAILURE() << "IOFA_TRANSPORT=shm was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("want inproc or tcp"),
              std::string::npos)
        << e.what();
  }
  // A typo in the matrix must fail loudly, not run in-proc silently.
  ::setenv("IOFA_TRANSPORT", "smh", 1);
  EXPECT_THROW(resolve_transport(TransportKind::kAuto),
               std::invalid_argument);
  ::unsetenv("IOFA_TRANSPORT");
  EXPECT_EQ(resolve_transport(TransportKind::kAuto),
            TransportKind::kInProc);
}

TEST(RpcOptions, ValidateRejectsNonsense) {
  EXPECT_NO_THROW(validate_rpc_options(RpcOptions{}));
  {
    RpcOptions o;
    o.ack_timeout = 0.0;
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
  {
    RpcOptions o;
    o.retry_backoff.base = -1.0;
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
  {
    RpcOptions o;
    o.ack_timeout = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
}

}  // namespace
}  // namespace iofa::rpc
