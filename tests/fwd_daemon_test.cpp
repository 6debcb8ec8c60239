// Tests for the ION daemon: staging semantics, fsync durability,
// aggregation through AGIOS, read routing (staged vs PFS), drain and
// shutdown behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "fault/clock.hpp"
#include "fault/plan.hpp"
#include "fwd/client.hpp"
#include "fwd/daemon.hpp"
#include "fwd/pfs_backend.hpp"
#include "fwd/service.hpp"
#include "fwd/wait_slot.hpp"
#include "gkfs/chunk.hpp"
#include "telemetry/telemetry.hpp"

namespace iofa::fwd {
namespace {

std::vector<std::byte> pattern_data(std::size_t n, std::uint64_t seed) {
  iofa::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

PfsParams fast_pfs() {
  PfsParams p;
  p.write_bandwidth = 4.0e9;
  p.read_bandwidth = 4.0e9;
  p.op_overhead = 4 * KiB;
  p.contention_coeff = 0.0;
  return p;
}

IonParams fast_ion() {
  IonParams p;
  p.ingest_bandwidth = 4.0e9;
  p.op_overhead = 4 * KiB;
  p.scheduler.kind = agios::SchedulerKind::Fifo;
  return p;
}

FwdRequest write_req(const std::string& path, std::uint64_t offset,
                     std::vector<std::byte> data) {
  FwdRequest req;
  req.op = FwdOp::Write;
  req.path = path;
  req.file_id = gkfs::hash_path(path);
  req.offset = offset;
  req.size = data.size();
  req.payload = iofa::Payload::wrap(
      std::make_shared<std::vector<std::byte>>(std::move(data)));
  return req;
}

FwdRequest read_req(const std::string& path, std::uint64_t offset,
                    std::uint64_t size) {
  FwdRequest req;
  req.op = FwdOp::Read;
  req.path = path;
  req.file_id = gkfs::hash_path(path);
  req.offset = offset;
  req.size = size;
  req.payload =
      iofa::Payload::wrap(std::make_shared<std::vector<std::byte>>(size));
  return req;
}

FwdRequest fsync_req(const std::string& path) {
  FwdRequest req;
  req.op = FwdOp::Fsync;
  req.path = path;
  req.file_id = gkfs::hash_path(path);
  return req;
}

/// Run `body` on its own thread and wait up to `limit` for it. A body
/// still running then is reported as a failure and the process exits:
/// a deadlocked daemon can be neither joined nor destroyed, and the
/// test must fail instead of hanging the suite.
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

TEST(IonDaemon, WriteCompletesAndFlushesToPfs) {
  EmulatedPfs pfs(fast_pfs());
  IonDaemon daemon(0, fast_ion(), pfs);
  const auto data = pattern_data(8192, 1);

  auto req = write_req("/f", 0, data);
  auto slot = wait_on(req);
  ASSERT_TRUE(daemon.submit(std::move(req)));
  EXPECT_EQ(slot->wait().value, 8192u);

  daemon.drain();
  EXPECT_EQ(pfs.bytes_written(), 8192u);
  std::vector<std::byte> out(8192);
  pfs.read("/f", 0, 8192, out);
  EXPECT_EQ(out, data);
}

// The fsync barrier in one submit mode: kQueue hands every request to
// a worker; kInlineWhenIdle lets the submitting thread dispatch it, and
// flush an inline write or complete a marker whose barrier is met.
void fsync_waits_for_staged_writes(SubmitMode mode) {
  EmulatedPfs pfs(fast_pfs());
  IonDaemon daemon(0, fast_ion(), pfs);

  for (int i = 0; i < 16; ++i) {
    auto req = write_req("/f", static_cast<std::uint64_t>(i) * 4096,
                         pattern_data(4096, static_cast<std::uint64_t>(i)));
    auto slot = wait_on(req);
    ASSERT_EQ(daemon.try_submit(std::move(req), mode),
              SubmitResult::kAccepted);
    EXPECT_TRUE(slot->wait().ok());
  }

  auto fsync = fsync_req("/f");
  auto slot = wait_on(fsync);
  ASSERT_EQ(daemon.try_submit(std::move(fsync), mode),
            SubmitResult::kAccepted);
  EXPECT_TRUE(slot->wait().ok());

  // After fsync returns, everything staged before it must be on the PFS.
  EXPECT_EQ(pfs.bytes_written(), 16u * 4096u);
}

TEST(IonDaemon, FsyncWaitsForStagedWrites) {
  fsync_waits_for_staged_writes(SubmitMode::kQueue);
}

TEST(IonDaemon, FsyncWaitsForStagedWritesInline) {
  fsync_waits_for_staged_writes(SubmitMode::kInlineWhenIdle);
}

double ion_counter(telemetry::Registry& reg, const std::string& name) {
  return static_cast<double>(reg.counter(name, {{"ion", "0"}}).value());
}

// An inline write whose PFS charge the write bucket cannot cover now is
// not flushed on the submitting thread but queued for a flusher, and an
// fsync offered inline behind it must wait for that flusher: its
// barrier is not met at ingest.
TEST(IonDaemon, FsyncAfterARefusedInlineFlushWaitsForTheFlusher) {
  telemetry::Registry reg;
  PfsParams slow = fast_pfs();
  slow.write_bandwidth = 1.0e6;
  slow.op_overhead = 0;
  slow.registry = &reg;
  EmulatedPfs pfs(slow);
  pfs.write("/warm", 0, static_cast<Bytes>(8 * MiB), {});  // drain the burst
  IonParams params = fast_ion();
  params.registry = &reg;
  IonDaemon daemon(0, params, pfs);

  const auto data = pattern_data(65536, 4);
  auto wreq = write_req("/f", 0, data);
  auto wslot = wait_on(wreq);
  ASSERT_EQ(daemon.try_submit(std::move(wreq), SubmitMode::kInlineWhenIdle),
            SubmitResult::kAccepted);
  EXPECT_TRUE(wslot->wait().ok());
  auto sync = fsync_req("/f");
  auto sslot = wait_on(sync);
  ASSERT_EQ(daemon.try_submit(std::move(sync), SubmitMode::kInlineWhenIdle),
            SubmitResult::kAccepted);
  EXPECT_TRUE(sslot->wait().ok());

  // ~65 ms of write tokens: the fsync returned only after the flusher.
  std::vector<std::byte> out(data.size());
  EXPECT_EQ(pfs.read("/f", 0, out.size(), out), out.size());
  EXPECT_EQ(out, data) << "fsync returned before the acked write was durable";
  EXPECT_EQ(ion_counter(reg, "fwd.ion.inline_dispatches"), 2.0);
  EXPECT_EQ(ion_counter(reg, "fwd.ion.inline_flushes"), 0.0);
  EXPECT_EQ(ion_counter(reg, "fwd.ion.fsync_met_at_ingest"), 0.0);
}

/// Continuations for fsync markers: each records how many bytes the PFS
/// held when its marker completed.
class DurableBytesLog {
 public:
  explicit DurableBytesLog(const EmulatedPfs& pfs) : pfs_(pfs) {}
  /// The continuation of one more marker.
  std::shared_ptr<CompletionSink> sink() {
    class Sink final : public CompletionSink {
     public:
      explicit Sink(DurableBytesLog& log) : log_(log) {}
      void complete(Completion) override { log_.record(); }

     private:
      DurableBytesLog& log_;
    };
    return std::make_shared<Sink>(*this);
  }
  /// Wait up to `limit` for `n` completions; the bytes recorded so far.
  std::vector<Bytes> wait_for(std::size_t n, std::chrono::milliseconds limit) {
    const auto until = std::chrono::steady_clock::now() + limit;
    UniqueLock lk(mu_);
    while (bytes_.size() < n &&
           cv_.wait_until(lk, until) != std::cv_status::timeout) {
    }
    return bytes_;
  }

 private:
  void record() {
    MutexLock lk(mu_);
    bytes_.push_back(pfs_.bytes_written());
    cv_.notify_all();
  }
  const EmulatedPfs& pfs_;
  Mutex mu_;
  CondVar cv_;
  std::vector<Bytes> bytes_ IOFA_GUARDED_BY(mu_);
};

/// A write's continuation: the moment the write is acknowledged it
/// offers fsync markers of several files to the daemon's queues (so
/// some reach a worker of another shard than the write's), and gives
/// any of them 200 ms to complete before the acking thread goes on to
/// flush the write.
class FsyncOnAck final : public CompletionSink {
 public:
  static constexpr std::size_t kMarkers = 8;
  FsyncOnAck(IonDaemon& daemon, DurableBytesLog& log)
      : daemon_(daemon), log_(log) {}
  void complete(Completion) override {
    for (std::size_t f = 0; f < kMarkers; ++f) {
      auto sync = fsync_req("/marker" + std::to_string(f));
      sync.done = log_.sink();
      EXPECT_EQ(daemon_.try_submit(std::move(sync)), SubmitResult::kAccepted);
    }
    early = log_.wait_for(1, std::chrono::milliseconds(200));
  }
  /// Bytes on the PFS at each marker completed while the acking thread
  /// was still here.
  std::vector<Bytes> early;

 private:
  IonDaemon& daemon_;
  DurableBytesLog& log_;
};

// An inline write is acknowledged before the dispatching thread flushes
// it, so a marker offered once the ack is out - here from the ack's own
// continuation, to workers of other shards - must count that write in
// its barrier and wait for the flush. A flush that took its seq only
// after the PFS write, or a marker completed at ingest unchecked, lets
// the marker complete with the acked bytes still staged.
TEST(IonDaemon, FsyncOfferedOnAnInlineAckWaitsForItsFlush) {
  telemetry::Registry reg;
  PfsParams pp = fast_pfs();
  pp.registry = &reg;
  EmulatedPfs pfs(pp);
  DurableBytesLog log(pfs);  // outlives the daemon that completes into it
  IonParams params = fast_ion();
  params.workers = 2;
  params.registry = &reg;
  IonDaemon daemon(0, params, pfs);

  const auto data = pattern_data(65536, 5);
  auto wreq = write_req("/w", 0, data);
  auto ack = std::make_shared<FsyncOnAck>(daemon, log);
  wreq.done = ack;
  ASSERT_EQ(daemon.try_submit(std::move(wreq), SubmitMode::kInlineWhenIdle),
            SubmitResult::kAccepted);
  ASSERT_EQ(ion_counter(reg, "fwd.ion.inline_flushes"), 1.0);
  EXPECT_TRUE(ack->early.empty())
      << "a marker completed before the acked write's flush, with "
      << ack->early.front() << " bytes on the PFS";
  const std::vector<Bytes> at =
      log.wait_for(FsyncOnAck::kMarkers, std::chrono::seconds(60));
  ASSERT_EQ(at.size(), FsyncOnAck::kMarkers);
  for (const Bytes b : at) EXPECT_GE(b, data.size());
  daemon.drain();
}

TEST(IonDaemon, ReadServedFromStagingBeforeFlush) {
  // Slow PFS: staged data cannot have been flushed yet when we read.
  PfsParams slow = fast_pfs();
  slow.write_bandwidth = 1.0e6;
  slow.op_overhead = 0;
  EmulatedPfs pfs(slow);
  // Drain the PFS burst so flushes crawl.
  pfs.write("/warm", 0, static_cast<Bytes>(8 * MiB), {});  // drain the burst

  IonDaemon daemon(0, fast_ion(), pfs);
  const auto data = pattern_data(65536, 3);
  auto wreq = write_req("/f", 0, data);
  auto wslot = wait_on(wreq);
  ASSERT_TRUE(daemon.submit(std::move(wreq)));
  EXPECT_TRUE(wslot->wait().ok());

  auto rreq = read_req("/f", 0, 65536);
  iofa::Payload buf = rreq.payload;
  auto rslot = wait_on(rreq);
  ASSERT_TRUE(daemon.submit(std::move(rreq)));
  EXPECT_EQ(rslot->wait().value, 65536u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), buf.span().begin()));
  EXPECT_GE(daemon.stats().reads_local, 1u);
}

TEST(IonDaemon, ReadFallsThroughToPfsWhenClean) {
  EmulatedPfs pfs(fast_pfs());
  const auto data = pattern_data(4096, 5);
  pfs.write("/direct", 0, 4096, data);

  IonDaemon daemon(0, fast_ion(), pfs);
  auto rreq = read_req("/direct", 0, 4096);
  iofa::Payload buf = rreq.payload;
  auto rslot = wait_on(rreq);
  ASSERT_TRUE(daemon.submit(std::move(rreq)));
  EXPECT_EQ(rslot->wait().value, 4096u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), buf.span().begin()));
  EXPECT_GE(daemon.stats().reads_pfs, 1u);
}

TEST(IonDaemon, AggregationMergesContiguousWrites) {
  EmulatedPfs pfs(fast_pfs());
  IonParams params = fast_ion();
  params.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
  params.scheduler.aggregation_window = 0.005;
  IonDaemon daemon(0, params, pfs);

  std::vector<std::shared_ptr<WaitSlot>> slots;
  for (int i = 0; i < 32; ++i) {
    auto req = write_req("/f", static_cast<std::uint64_t>(i) * 4096,
                         pattern_data(4096, static_cast<std::uint64_t>(i)));
    slots.push_back(wait_on(req));
    ASSERT_TRUE(daemon.submit(std::move(req)));
  }
  for (auto& s : slots) EXPECT_TRUE(s->wait().ok());
  daemon.drain();

  const auto stats = daemon.stats();
  EXPECT_EQ(stats.requests, 32u);
  EXPECT_LT(stats.dispatches, 32u);  // some merging must have happened
  EXPECT_EQ(stats.bytes_in, 32u * 4096u);
  EXPECT_EQ(stats.bytes_flushed, 32u * 4096u);
}

TEST(IonDaemon, DrainLeavesNothingPending) {
  EmulatedPfs pfs(fast_pfs());
  IonDaemon daemon(0, fast_ion(), pfs);
  for (int i = 0; i < 64; ++i) {
    auto req = write_req("/f" + std::to_string(i % 4),
                         static_cast<std::uint64_t>(i) * 4096,
                         pattern_data(4096, static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(daemon.submit(std::move(req)));
  }
  daemon.drain();
  EXPECT_EQ(pfs.bytes_written(), 64u * 4096u);
  EXPECT_EQ(daemon.queue_depth(), 0u);
}

TEST(IonDaemon, SubmitAfterShutdownFails) {
  EmulatedPfs pfs(fast_pfs());
  IonDaemon daemon(0, fast_ion(), pfs);
  daemon.shutdown();
  auto req = write_req("/f", 0, pattern_data(16, 1));
  EXPECT_FALSE(daemon.submit(std::move(req)));
}

TEST(IonDaemon, ShutdownFlushesAcceptedWork) {
  EmulatedPfs pfs(fast_pfs());
  {
    IonDaemon daemon(0, fast_ion(), pfs);
    for (int i = 0; i < 8; ++i) {
      auto req = write_req("/f", static_cast<std::uint64_t>(i) * 4096,
                           pattern_data(4096, 1));
      ASSERT_TRUE(daemon.submit(std::move(req)));
    }
    daemon.shutdown();
  }
  EXPECT_EQ(pfs.bytes_written(), 8u * 4096u);
}

// Regression: the dispatcher's timed pop must distinguish "queue closed
// and drained" from "nothing ingested before the timeout". With a
// time-window aggregation scheduler the window can expire AFTER the
// ingest queue closes; a dispatcher that treated the two alike walked
// away from requests still parked inside the scheduler, losing their
// completions and their staged flushes.
TEST(IonDaemon, ShutdownWaitsOutTheAggregationWindow) {
  EmulatedPfs pfs(fast_pfs());
  IonParams params = fast_ion();
  params.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
  params.scheduler.aggregation_window = 0.05;  // >> dispatcher poll slice
  std::vector<std::shared_ptr<WaitSlot>> slots;
  {
    IonDaemon daemon(0, params, pfs);
    for (int i = 0; i < 8; ++i) {
      auto req = write_req("/f", static_cast<std::uint64_t>(i) * 4096,
                           pattern_data(4096, static_cast<std::uint64_t>(i)));
      slots.push_back(wait_on(req));
      ASSERT_TRUE(daemon.submit(std::move(req)));
    }
    // Close the ingest queue while the window still holds every
    // request back; shutdown must wait for the scheduler to drain.
    daemon.shutdown();
  }
  for (auto& s : slots) EXPECT_EQ(s->wait().value, 4096u);
  EXPECT_EQ(pfs.bytes_written(), 8u * 4096u);
}

TEST(IonDaemon, ShutdownReleasesHeldRequestsWithoutWaitingOutTheWindow) {
  // Nothing arrives after close, so the worker releases what the
  // scheduler holds at its ready times without sleeping until them:
  // the same dispatches and merges, and no 10 s wait.
  for (int w : {1, 4}) {
    telemetry::Registry reg;
    EmulatedPfs pfs(fast_pfs());
    IonParams params = fast_ion();
    params.workers = w;
    params.registry = &reg;
    params.scheduler.kind = agios::SchedulerKind::TimeWindowAggregation;
    params.scheduler.aggregation_window = 10.0;
    std::vector<std::shared_ptr<WaitSlot>> slots;
    double shutdown_s = 0.0;
    IonDaemon::Stats stats;
    {
      IonDaemon daemon(0, params, pfs);
      for (const char* path : {"/held.a", "/held.b"}) {
        for (int i = 0; i < 8; ++i) {
          auto req = write_req(path, static_cast<std::uint64_t>(i) * 4096,
                               pattern_data(4096, static_cast<std::uint64_t>(i)));
          slots.push_back(wait_on(req));
          ASSERT_TRUE(daemon.submit(std::move(req)));
        }
      }
      const double t0 = monotonic_seconds();
      daemon.shutdown();
      shutdown_s = monotonic_seconds() - t0;
      stats = daemon.stats();
    }
    EXPECT_LT(shutdown_s, 1.0) << "workers=" << w;
    for (auto& s : slots) EXPECT_EQ(s->wait().value, 4096u);
    EXPECT_EQ(stats.requests, 16u);
    EXPECT_EQ(stats.dispatches, 2u) << "one merged run per file";
    EXPECT_EQ(pfs.bytes_written(), 16u * 4096u);
  }
}

TEST(IonDaemon, IdleWorkersDoNotWake) {
  // A worker waits for an arrival, its scheduler's ready time or close,
  // and every one of those wakes ingests or dispatches something. An
  // idle ION - also after a TO-AGG window has dispatched - costs no
  // wakeup at all.
  for (const auto kind : {agios::SchedulerKind::Fifo,
                          agios::SchedulerKind::TimeWindowAggregation}) {
    for (int w : {1, 4}) {
      telemetry::Registry reg;
      EmulatedPfs pfs(fast_pfs());
      IonParams params = fast_ion();
      params.workers = w;
      params.registry = &reg;
      params.scheduler.kind = kind;
      params.scheduler.aggregation_window = 0.005;
      IonDaemon daemon(0, params, pfs);
      const auto& idle =
          reg.counter("fwd.ion.idle_wakeups", {{"ion", "0"}});
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_EQ(idle.value(), 0u) << "idle from the start, workers=" << w;

      std::vector<std::shared_ptr<WaitSlot>> slots;
      for (int i = 0; i < 16; ++i) {
        auto req = write_req("/idle" + std::to_string(i % 4),
                             static_cast<std::uint64_t>(i / 4) * 4096,
                             pattern_data(4096, static_cast<std::uint64_t>(i)));
        slots.push_back(wait_on(req));
        ASSERT_TRUE(daemon.submit(std::move(req)));
      }
      for (auto& s : slots) EXPECT_EQ(s->wait().value, 4096u);
      daemon.drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      EXPECT_EQ(idle.value(), 0u)
          << agios::to_string(kind) << " workers=" << w;
      EXPECT_EQ(daemon.stats().requests, 16u);
    }
  }
}

TEST(IonDaemon, ConcurrentSubmittersAllComplete) {
  EmulatedPfs pfs(fast_pfs());
  IonDaemon daemon(0, fast_ion(), pfs);
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 32; ++i) {
        auto req = write_req("/t" + std::to_string(t),
                             static_cast<std::uint64_t>(i) * 4096,
                             pattern_data(4096, 1));
        auto slot = wait_on(req);
        EXPECT_TRUE(daemon.submit(std::move(req)));
        EXPECT_TRUE(slot->wait().ok());
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  daemon.drain();
  EXPECT_EQ(completed.load(), 256);
  EXPECT_EQ(pfs.bytes_written(), 256u * 4096u);
}

TEST(IonDaemon, AccountingOnlyModeMovesNoData) {
  PfsParams pp = fast_pfs();
  pp.store_data = false;
  EmulatedPfs pfs(pp);
  IonParams ip = fast_ion();
  IonDaemon daemon(0, ip, pfs);

  FwdRequest req;
  req.op = FwdOp::Write;
  req.path = "/f";
  req.file_id = gkfs::hash_path("/f");
  req.offset = 0;
  req.size = 1 << 20;
  auto slot = wait_on(req);
  ASSERT_TRUE(daemon.submit(std::move(req)));
  EXPECT_EQ(slot->wait().value, static_cast<std::size_t>(1 << 20));
  daemon.drain();
  EXPECT_EQ(pfs.bytes_written(), static_cast<Bytes>(1 << 20));
}

TEST(IonDaemon, WriteThroughAcksOnlyAfterPfs) {
  // Slow PFS + write-through: the client-visible completion must take at
  // least as long as the PFS write itself.
  PfsParams slow = fast_pfs();
  slow.write_bandwidth = 5.0e6;  // 5 MB/s
  slow.op_overhead = 0;
  slow.store_data = false;
  EmulatedPfs pfs(slow);
  pfs.write("/warm", 0, static_cast<Bytes>(8 * MiB), {});  // drain the burst  // drain burst

  IonParams params = fast_ion();
  params.write_through = true;
  IonDaemon daemon(0, params, pfs);

  FwdRequest req;
  req.op = FwdOp::Write;
  req.path = "/f";
  req.file_id = gkfs::hash_path("/f");
  req.offset = 0;
  req.size = 1 << 20;  // 1 MiB at 5 MB/s >= ~200 ms
  auto slot = wait_on(req);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(daemon.submit(std::move(req)));
  EXPECT_EQ(slot->wait().value, static_cast<std::size_t>(1 << 20));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(elapsed, 0.12);
  EXPECT_EQ(pfs.bytes_written(),
            static_cast<Bytes>(8 * MiB) + (1 << 20));  // incl. warm-up
}

TEST(IonDaemon, WriteBehindAcksBeforePfs) {
  // Same setup without write-through: the ack returns long before the
  // PFS write finishes (the burst-buffer effect).
  PfsParams slow = fast_pfs();
  slow.write_bandwidth = 5.0e6;
  slow.op_overhead = 0;
  slow.store_data = false;
  EmulatedPfs pfs(slow);
  pfs.write("/warm", 0, static_cast<Bytes>(8 * MiB), {});  // drain the burst

  IonParams params = fast_ion();
  IonDaemon daemon(0, params, pfs);

  FwdRequest req;
  req.op = FwdOp::Write;
  req.path = "/f";
  req.file_id = gkfs::hash_path("/f");
  req.offset = 0;
  req.size = 1 << 20;
  auto slot = wait_on(req);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(daemon.submit(std::move(req)));
  EXPECT_TRUE(slot->wait().ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 0.1);
  daemon.drain();  // the flush still happens eventually
  EXPECT_EQ(pfs.bytes_written(),
            static_cast<Bytes>(8 * MiB) + (1 << 20));  // incl. warm-up
}

// TSan-targeted stress: an arbiter thread republishes the mapping while
// client threads issue forwarded I/O through views that poll on every
// operation. Exercises MappingStore publish vs lookup, the
// ClientMappingView counters, and the daemons' submit/flush paths under
// real contention; run under -DIOFA_SANITIZE=thread to surface races.
TEST(IonDaemon, RemapWhileClientsIssueIo) {
  ServiceConfig cfg;
  cfg.ion_count = 4;
  cfg.pfs.write_bandwidth = 4.0e9;
  cfg.pfs.read_bandwidth = 4.0e9;
  cfg.pfs.op_overhead = 4 * KiB;
  cfg.pfs.contention_coeff = 0.0;
  cfg.ion.ingest_bandwidth = 4.0e9;
  cfg.ion.op_overhead = 4 * KiB;
  cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
  ForwardingService service(cfg);

  ClientConfig cc;
  cc.job = 7;
  cc.app_label = "stress";
  cc.poll_period = 0.0;  // consult the store on every operation
  Client client(cc, service);

  auto mapping_with = [](std::vector<int> ions, std::uint64_t epoch) {
    core::Mapping m;
    m.epoch = epoch;
    m.pool = 4;
    m.jobs[7] = core::Mapping::Entry{"stress", std::move(ions), false};
    return m;
  };
  service.apply_mapping(mapping_with({0, 1}, 1));

  std::atomic<bool> stop{false};
  std::thread arbiter([&] {
    // Cycle through ION subsets (including unmapped -> direct access).
    const std::vector<std::vector<int>> plans{
        {0, 1}, {2}, {}, {1, 2, 3}, {3}, {0}};
    std::uint64_t epoch = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      service.apply_mapping(mapping_with(plans[epoch % plans.size()], epoch));
      ++epoch;
      std::this_thread::yield();
    }
  });

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<std::size_t> bytes{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto rank = static_cast<std::uint32_t>(t);
      const std::string path = "/stress" + std::to_string(t);
      const auto data = pattern_data(4096, static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto off = static_cast<std::uint64_t>(i) * 4096;
        bytes.fetch_add(client.pwrite(rank, path, off, 4096, data));
        if (i % 16 == 15) {
          std::vector<std::byte> buf(4096);
          client.pread(rank, path, off, 4096, buf);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  arbiter.join();
  service.drain();

  EXPECT_EQ(bytes.load(),
            static_cast<std::size_t>(kThreads) * kOpsPerThread * 4096u);
  // Every op either went through an ION or straight to the PFS (each
  // 4 KiB request is a single chunk, so one sub-request per op).
  EXPECT_EQ(client.forwarded_ops() + client.direct_ops(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread +
                static_cast<std::uint64_t>(kThreads) * (kOpsPerThread / 16));
}

// --- sharded pipeline ------------------------------------------------

TEST(IonDaemon, PipelineLastWriterWinsAcrossWorkerCounts) {
  // Per-(file_id, op) shard routing must preserve program order: K
  // rewrites of the same offset, submitted in order from one thread,
  // land on the PFS with the last writer winning at every pool width.
  for (int w : {2, 4, 8}) {
    EmulatedPfs pfs(fast_pfs());
    IonParams params = fast_ion();
    params.workers = w;
    IonDaemon daemon(0, params, pfs);
    ASSERT_EQ(daemon.workers(), w);
    ASSERT_EQ(daemon.flushers(), w);

    constexpr int kFiles = 6;
    constexpr int kVersions = 5;
    std::vector<std::shared_ptr<WaitSlot>> slots;
    for (int v = 0; v < kVersions; ++v) {
      for (int f = 0; f < kFiles; ++f) {
        auto req = write_req(
            "/lw" + std::to_string(f), 0,
            pattern_data(4096, static_cast<std::uint64_t>(100 * f + v)));
        slots.push_back(wait_on(req));
        ASSERT_TRUE(daemon.submit(std::move(req)));
      }
    }
    for (auto& s : slots) EXPECT_EQ(s->wait().value, 4096u);
    daemon.drain();

    for (int f = 0; f < kFiles; ++f) {
      std::vector<std::byte> out(4096);
      ASSERT_EQ(pfs.read("/lw" + std::to_string(f), 0, 4096, out), 4096u);
      EXPECT_EQ(out, pattern_data(4096, static_cast<std::uint64_t>(
                                            100 * f + kVersions - 1)))
          << "file " << f << " at workers=" << w;
    }
  }
}

TEST(IonDaemon, PipelineCrashRestartLosesNoAckedByteAcrossWorkerCounts) {
  // Crash/restart fault plan against the sharded pipeline: whatever the
  // daemon acknowledged before (or after) the crash window must reach
  // the PFS, because staging and the flushers survive the crash. The
  // byte accounting has to close exactly: flushed == acked, abandoned
  // == 0.
  for (int w : {2, 4, 8}) {
    telemetry::Registry reg;
    fault::ManualFaultClock clock;
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.crash_ion(0, 0.5).restart_ion(0, 1.0);
    fault::FaultInjector injector(std::move(plan), &clock, &reg);

    EmulatedPfs pfs(fast_pfs());
    IonParams params = fast_ion();
    params.workers = w;
    params.registry = &reg;
    params.injector = &injector;
    IonDaemon daemon(0, params, pfs);

    struct Write {
      std::string path;
      std::uint64_t offset;
      std::uint64_t seed;
    };
    std::vector<Write> acked;
    std::uint64_t next = 0;
    auto submit_phase = [&](int count) {
      std::vector<std::pair<Write, std::shared_ptr<WaitSlot>>> round;
      for (int i = 0; i < count; ++i) {
        const std::uint64_t n = next++;
        Write a{"/cr" + std::to_string(n % 4), (n / 4) * 4096, n + 1};
        auto req = write_req(a.path, a.offset, pattern_data(4096, a.seed));
        auto slot = wait_on(req);
        if (!daemon.submit(std::move(req))) continue;  // refused: down
        round.emplace_back(std::move(a), std::move(slot));
      }
      for (auto& [a, slot] : round) {
        const Completion c = slot->wait();
        if (c.ok()) {
          if (c.value == 4096u) acked.push_back(a);
        } else {
          // Crash casualty: the client fails over; no durability claim.
          EXPECT_EQ(c.status, CompletionStatus::kIonDown);
        }
      }
    };

    submit_phase(24);  // before the crash: every write is acked
    clock.set(0.6);    // inside the crash window
    EXPECT_FALSE(daemon.alive());
    submit_phase(8);   // refused (or failed) - never acked
    clock.set(1.1);    // restart: staging and flushers reattach
    EXPECT_TRUE(daemon.alive());
    submit_phase(24);  // after the restart: acked again
    daemon.drain();

    EXPECT_GE(acked.size(), 48u) << "workers=" << w;
    std::uint64_t acked_bytes = 0;
    for (const auto& a : acked) {
      std::vector<std::byte> out(4096);
      ASSERT_EQ(pfs.read(a.path, a.offset, 4096, out), 4096u)
          << a.path << "+" << a.offset << " lost at workers=" << w;
      EXPECT_EQ(out, pattern_data(4096, a.seed))
          << a.path << "+" << a.offset << " corrupt at workers=" << w;
      acked_bytes += 4096;
    }
    EXPECT_EQ(daemon.stats().bytes_flushed, acked_bytes);
    EXPECT_EQ(
        reg.counter("fwd.ion.flush_abandoned", {{"ion", "0"}}).value(), 0u);
  }
}

TEST(IonDaemon, PipelineAccountsAbandonedFlushes) {
  // A PFS write error with a retry budget of 1 abandons exactly one
  // staged item. The accounting must close (flushed bytes + abandoned
  // item == acked bytes) and no acked byte may be lost: the abandoned
  // range stays dirty and is served from staging.
  telemetry::Registry reg;
  fault::ManualFaultClock clock;
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.error_after(fault::kPfsWriteSite, 5);
  fault::FaultInjector injector(std::move(plan), &clock, &reg);

  PfsParams pp = fast_pfs();
  pp.registry = &reg;
  pp.injector = &injector;
  EmulatedPfs pfs(pp);

  IonParams params = fast_ion();
  params.workers = 4;
  params.registry = &reg;
  params.injector = &injector;
  params.max_flush_attempts = 1;  // first failure abandons
  IonDaemon daemon(0, params, pfs);

  constexpr int kWrites = 32;
  std::vector<std::shared_ptr<WaitSlot>> slots;
  for (int i = 0; i < kWrites; ++i) {
    auto req = write_req("/ab" + std::to_string(i % 4),
                         static_cast<std::uint64_t>(i / 4) * 4096,
                         pattern_data(4096, static_cast<std::uint64_t>(i)));
    slots.push_back(wait_on(req));
    ASSERT_TRUE(daemon.submit(std::move(req)));
  }
  for (auto& s : slots) EXPECT_EQ(s->wait().value, 4096u);  // write-behind acks
  daemon.drain();

  EXPECT_EQ(reg.counter("fwd.ion.flush_abandoned", {{"ion", "0"}}).value(),
            1u);
  EXPECT_EQ(daemon.stats().bytes_flushed, (kWrites - 1) * 4096u);

  for (int i = 0; i < kWrites; ++i) {
    auto rreq = read_req("/ab" + std::to_string(i % 4),
                         static_cast<std::uint64_t>(i / 4) * 4096, 4096);
    iofa::Payload buf = rreq.payload;
    auto rslot = wait_on(rreq);
    ASSERT_TRUE(daemon.submit(std::move(rreq)));
    EXPECT_EQ(rslot->wait().value, 4096u);
    const auto want = pattern_data(4096, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(std::equal(want.begin(), want.end(), buf.span().begin()));
  }
  EXPECT_GE(daemon.stats().reads_local, 1u);  // the dirty range
}

/// A fault clock whose every reading blocks until open() is called.
/// The PFS consults its injector, hence this clock, on each write, so a
/// closed gate holds the flusher at its first PFS write - no sleeps.
class GateClock : public fault::FaultClock {
 public:
  Seconds now() const override {
    UniqueLock lk(mu_);
    while (!open_) cv_.wait(lk);
    return 0.0;
  }
  void open() {
    {
      MutexLock lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable Mutex mu_;
  mutable CondVar cv_;
  bool open_ IOFA_GUARDED_BY(mu_) = false;
};

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out;
  for (const char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

TEST(IonDaemon, FlushOfOlderWriteKeepsNewerOverlapDirty) {
  // Last-writer-wins regression: write 1 [0,8) and write 2 [2,4) are
  // both staged before either flushes. Write 1's flush must release
  // only its own extent; write 2's flush fails until its retry budget
  // is spent, so its bytes never reach the PFS and its range must stay
  // dirty. A merged dirty map used to forget [2,4) when [0,8) flushed,
  // and the read then returned the PFS's stale "xxxxxxxx".
  telemetry::Registry reg;
  GateClock gate;
  fault::FaultPlan plan;
  plan.error_after(fault::kPfsWriteSite, 2);  // write 2's only attempt
  fault::FaultInjector injector(std::move(plan), &gate, &reg);

  PfsParams pp = fast_pfs();
  pp.registry = &reg;
  pp.injector = &injector;
  EmulatedPfs pfs(pp);

  IonParams params = fast_ion();
  params.registry = &reg;
  params.max_flush_attempts = 1;
  IonDaemon daemon(0, params, pfs);

  const auto stage = [&](std::uint64_t offset, const std::string& text) {
    auto req = write_req("/lww", offset, bytes_of(text));
    auto slot = wait_on(req);
    ASSERT_TRUE(daemon.submit(std::move(req)));
    EXPECT_TRUE(slot->wait().ok());  // staged and acked, not flushed
  };
  stage(0, "xxxxxxxx");
  stage(2, "AB");
  gate.open();
  daemon.drain();
  ASSERT_EQ(reg.counter("fwd.ion.flush_abandoned", {{"ion", "0"}}).value(),
            1u);

  auto rreq = read_req("/lww", 0, 8);
  iofa::Payload buf = rreq.payload;
  auto rslot = wait_on(rreq);
  ASSERT_TRUE(daemon.submit(std::move(rreq)));
  EXPECT_EQ(rslot->wait().value, 8u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(buf.span().data()), 8),
            "xxABxxxx");
}

/// A continuation that counts its calls; a second call is a double
/// completion (a WaitSlot would silently overwrite it).
class CountingSink final : public CompletionSink {
 public:
  void complete(Completion c) override {
    MutexLock lk(mu_);
    if (++calls_ > 1) ADD_FAILURE() << "continuation completed twice";
    last_ = c;
    cv_.notify_all();
  }
  /// Block until the first call.
  void wait() const {
    UniqueLock lk(mu_);
    while (calls_ == 0) cv_.wait(lk);
  }
  int calls() const {
    MutexLock lk(mu_);
    return calls_;
  }
  Completion last() const {
    MutexLock lk(mu_);
    return last_;
  }

 private:
  mutable Mutex mu_;
  mutable CondVar cv_;
  int calls_ IOFA_GUARDED_BY(mu_) = 0;
  Completion last_ IOFA_GUARDED_BY(mu_);
};

std::shared_ptr<CountingSink> count_on(FwdRequest& req) {
  auto sink = std::make_shared<CountingSink>();
  req.done = sink;
  return sink;
}

void expect_once(const CountingSink& sink, CompletionStatus status,
                 std::size_t value, const char* path) {
  EXPECT_EQ(sink.calls(), 1) << path;
  EXPECT_EQ(sink.last().status, status) << path;
  EXPECT_EQ(sink.last().value, value) << path;
}

TEST(IonDaemon, EveryTerminalPathCompletesExactlyOnce) {
  // Continuations run inline on the worker or flusher that settles the
  // request. Each terminal path must call its continuation exactly
  // once, and drain() must return only after it did.
  constexpr std::size_t kLen = 4096;
  {
    // Write-behind ack, staging read, PFS read, fsync marker, expiry.
    // The closed gate holds the flusher at its first PFS write, so the
    // staged range stays dirty until the read has been served.
    telemetry::Registry reg;
    GateClock gate;
    fault::FaultInjector injector(fault::FaultPlan{}, &gate, &reg);
    PfsParams pp = fast_pfs();
    pp.registry = &reg;
    pp.injector = &injector;
    EmulatedPfs pfs(pp);
    IonParams params = fast_ion();
    params.registry = &reg;
    IonDaemon daemon(0, params, pfs);

    auto wreq = write_req("/once", 0, pattern_data(kLen, 1));
    auto write_ack = count_on(wreq);
    ASSERT_TRUE(daemon.submit(std::move(wreq)));
    auto sreq = read_req("/once", 0, kLen);
    auto staged_read = count_on(sreq);
    ASSERT_TRUE(daemon.submit(std::move(sreq)));
    auto freq = fsync_req("/once");
    auto marker = count_on(freq);
    ASSERT_TRUE(daemon.submit(std::move(freq)));
    auto xreq = write_req("/once", kLen, pattern_data(kLen, 2));
    xreq.deadline_us = 1;  // long past: expires at dequeue
    auto expired = count_on(xreq);
    ASSERT_TRUE(daemon.submit(std::move(xreq)));
    staged_read->wait();
    gate.open();
    daemon.drain();

    auto preq = read_req("/once", 0, kLen);  // flushed: clean now
    auto pfs_read = count_on(preq);
    ASSERT_TRUE(daemon.submit(std::move(preq)));
    daemon.drain();

    expect_once(*write_ack, CompletionStatus::kOk, kLen, "write-behind");
    expect_once(*staged_read, CompletionStatus::kOk, kLen, "staging read");
    expect_once(*marker, CompletionStatus::kOk, 0, "fsync marker");
    expect_once(*expired, CompletionStatus::kExpired, 0, "expiry");
    expect_once(*pfs_read, CompletionStatus::kOk, kLen, "pfs read");
    EXPECT_EQ(daemon.stats().reads_local, 1u);
    EXPECT_EQ(daemon.stats().reads_pfs, 1u);
  }
  {
    // Write-through: the first flush lands, the second is abandoned.
    telemetry::Registry reg;
    fault::ManualFaultClock clock;
    fault::FaultPlan plan;
    plan.error_after(fault::kPfsWriteSite, 2);
    fault::FaultInjector injector(std::move(plan), &clock, &reg);
    PfsParams pp = fast_pfs();
    pp.registry = &reg;
    pp.injector = &injector;
    EmulatedPfs pfs(pp);
    IonParams params = fast_ion();
    params.registry = &reg;
    params.write_through = true;
    params.max_flush_attempts = 1;
    IonDaemon daemon(0, params, pfs);

    auto lreq = write_req("/wt.a", 0, pattern_data(kLen, 3));
    auto landed = count_on(lreq);
    ASSERT_TRUE(daemon.submit(std::move(lreq)));
    auto areq = write_req("/wt.b", 0, pattern_data(kLen, 4));
    auto abandoned = count_on(areq);
    ASSERT_TRUE(daemon.submit(std::move(areq)));
    daemon.drain();

    expect_once(*landed, CompletionStatus::kOk, kLen, "write-through");
    expect_once(*abandoned, CompletionStatus::kIonDown, 0,
                "abandoned flush");
  }
  {
    // Admission-site crash: the first request takes the ION down.
    telemetry::Registry reg;
    fault::ManualFaultClock clock;
    fault::FaultPlan plan;
    plan.crash_ion_after(0, 1);
    fault::FaultInjector injector(std::move(plan), &clock, &reg);
    PfsParams pp = fast_pfs();
    pp.registry = &reg;
    EmulatedPfs pfs(pp);
    IonParams params = fast_ion();
    params.registry = &reg;
    params.injector = &injector;
    IonDaemon daemon(0, params, pfs);

    auto creq = write_req("/crash", 0, pattern_data(kLen, 5));
    auto crashed = count_on(creq);
    ASSERT_TRUE(daemon.submit(std::move(creq)));
    daemon.drain();

    expect_once(*crashed, CompletionStatus::kIonDown, 0, "crash");
    EXPECT_FALSE(daemon.alive());
  }
}

TEST(IonDaemon, QueueWaitRestampedAcrossCrashRestart) {
  // Regression: a request that sits in an ingest queue through a
  // crash-restart used to bill the whole down window to
  // fwd.ion.queue_wait_us, poisoning its percentiles (and a QoS
  // tenant's p99 queue-wait SLO, fed the same wait) for minutes after
  // recovery. The restamp floor raised by restart() means the
  // histogram only sees the post-restart wait.
  telemetry::Registry reg;
  EmulatedPfs pfs(fast_pfs());
  IonParams params = fast_ion();
  params.workers = 1;
  params.registry = &reg;
  // Long modelled dispatch service time: the single worker is busy in
  // process() for the whole crash window, so the queued request is
  // never drained-and-failed — it survives into the restarted daemon.
  params.dispatch_latency = 0.6;
  IonDaemon daemon(0, params, pfs);

  auto first = write_req("/rs", 0, pattern_data(4096, 1));
  auto first_slot = wait_on(first);
  ASSERT_TRUE(daemon.submit(std::move(first)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The worker is mid-dispatch; this one queues behind it.
  auto second = write_req("/rs", 4096, pattern_data(4096, 2));
  auto second_slot = wait_on(second);
  ASSERT_TRUE(daemon.submit(std::move(second)));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  daemon.crash();
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  daemon.restart();  // raises the restamp floor to "now"

  EXPECT_EQ(first_slot->wait().value, 4096u);
  EXPECT_EQ(second_slot->wait().value, 4096u);
  daemon.drain();

  const auto& hist = reg.histogram(
      "fwd.ion.queue_wait_us", telemetry::BucketSpec::latency_us(),
      {{"ion", "0"}});
  ASSERT_EQ(hist.count(), 2u);
  // The second request was queued for the full ~600ms dispatch sleep;
  // restamped it may only be billed the ~200ms since the restart (plus
  // scheduling jitter). Without restamping the sum is >= 550000us.
  EXPECT_LT(hist.sum(), 400000.0)
      << "queue wait billed across the down window";
}

TEST(IonDaemon, TwoHotFilesKeepOrderUnderWorkStealing) {
  // Regression for flusher head-of-line blocking: with 8 flushers and
  // only two hot files, all eight flushers take runs of the same two
  // files from the shared queue. Their extents overlap queued rewrites
  // of the same offsets, so only the enqueue-seq extent gate keeps
  // last-writer-wins; a flusher that bypassed it would let an older
  // version land last.
  telemetry::Registry reg;
  PfsParams pp = fast_pfs();
  // ~2 ms per 4 KiB flush once the burst is drained: the flush queue
  // backs up, so several flushers hold items of the same file at once.
  pp.write_bandwidth = 4.0e6;
  pp.registry = &reg;
  EmulatedPfs pfs(pp);
  pfs.write("/warm", 0, static_cast<Bytes>(8 * MiB), {});  // drain the burst
  IonParams params = fast_ion();
  params.workers = 8;
  params.registry = &reg;
  params.flush_batch_max = 4 * KiB;  // one extent per run: maximal overlap
  IonDaemon daemon(0, params, pfs);
  ASSERT_EQ(daemon.flushers(), 8);

  constexpr int kVersions = 64;
  // Built up front so the writes arrive faster than the PFS drains them.
  std::vector<FwdRequest> reqs;
  std::vector<std::shared_ptr<WaitSlot>> slots;
  for (int v = 0; v < kVersions; ++v) {
    for (int f = 0; f < 2; ++f) {
      reqs.push_back(write_req(
          "/hot" + std::to_string(f), static_cast<std::uint64_t>(v % 4) * 4096,
          pattern_data(4096, static_cast<std::uint64_t>(1000 * f + v))));
      slots.push_back(wait_on(reqs.back()));
    }
  }
  for (auto& req : reqs) ASSERT_TRUE(daemon.submit(std::move(req)));
  for (auto& s : slots) EXPECT_EQ(s->wait().value, 4096u);
  daemon.drain();

  for (int f = 0; f < 2; ++f) {
    for (int slot = 0; slot < 4; ++slot) {
      // Offset slot*4096 was last rewritten by version kVersions-4+slot.
      const int last = kVersions - 4 + slot;
      std::vector<std::byte> out(4096);
      ASSERT_EQ(pfs.read("/hot" + std::to_string(f),
                         static_cast<std::uint64_t>(slot) * 4096, 4096, out),
                4096u);
      EXPECT_EQ(out, pattern_data(
                         4096, static_cast<std::uint64_t>(1000 * f + last)))
          << "file " << f << " slot " << slot << " lost last-writer-wins";
    }
  }
  // More than one flusher must actually have written the same hot file
  // at once: a PFS write that queues behind another on the file's lock
  // is a contention stall.
  EXPECT_GT(reg.counter("fwd.pfs.lock_contention").value(), 0u);
}

TEST(IonDaemon, OverlappingMisalignedRewritesDrainAcrossWorkerCounts) {
  // Regression for a flusher deadlock: writes at [0,4K), [2K,6K) and
  // [4K,8K) of two hot files, rewritten round after round. If a flusher
  // could coalesce items s and s+2 into one run while another holds
  // s+1, each would wait in the extent gate for the other's extent.
  // Runs are gap-free in enqueue seq, so every gate wait points at a
  // strictly older run and drain() must return.
  constexpr int kRounds = 400;
  constexpr std::array<std::uint64_t, 3> kOffsets{0, 2 * KiB, 4 * KiB};
  for (int w : {2, 4, 8}) {
    EmulatedPfs pfs(fast_pfs());
    IonParams params = fast_ion();
    params.workers = w;
    IonDaemon daemon(0, params, pfs);
    ASSERT_EQ(daemon.flushers(), w);
    ASSERT_EQ(params.flush_batch_max, IonParams{}.flush_batch_max);

    // The expected final bytes of each file: every write applied in
    // submission order.
    std::array<std::vector<std::byte>, 2> expected;
    for (auto& e : expected) e.assign(8 * KiB, std::byte{0});
    run_with_watchdog(std::chrono::seconds(60),
                      "drain at workers=" + std::to_string(w), [&] {
      std::vector<std::shared_ptr<WaitSlot>> slots;
      for (int r = 0; r < kRounds; ++r) {
        for (int f = 0; f < 2; ++f) {
          for (std::size_t k = 0; k < kOffsets.size(); ++k) {
            auto data = pattern_data(
                4 * KiB, static_cast<std::uint64_t>((r * 2 + f) * 3 + k));
            std::copy(data.begin(), data.end(),
                      expected[f].begin() +
                          static_cast<std::ptrdiff_t>(kOffsets[k]));
            auto req =
                write_req("/ov" + std::to_string(f), kOffsets[k], data);
            slots.push_back(wait_on(req));
            EXPECT_TRUE(daemon.submit(std::move(req)));
          }
        }
      }
      for (auto& s : slots) EXPECT_EQ(s->wait().value, 4 * KiB);
      daemon.drain();
    });
    for (int f = 0; f < 2; ++f) {
      std::vector<std::byte> out(8 * KiB);
      ASSERT_EQ(pfs.read("/ov" + std::to_string(f), 0, 8 * KiB, out),
                8 * KiB);
      EXPECT_EQ(out, expected[f])
          << "file " << f << " lost last-writer-wins at workers=" << w;
    }
  }
}

// Several threads interleave writes to several files with fsyncs. An
// fsync must not complete before every write acked ahead of it - by
// any thread - is on the PFS, whichever flusher or inline dispatcher
// drained it. Each thread owns its own 4 KiB slots; a slot's first 8
// bytes carry its version, so the PFS copy can be compared against what
// was acked.
void fsync_barrier_holds_on_the_shared_flush_queue(SubmitMode mode) {
  constexpr int kThreads = 4;
  constexpr int kFiles = 3;
  constexpr int kSlots = 4;  // per thread and file
  constexpr int kRounds = 40;
  constexpr int kAll = kThreads * kFiles * kSlots;
  auto slot_path = [](int i) { return "/fb" + std::to_string(i % kFiles); };
  auto slot_offset = [](int i) {
    return static_cast<std::uint64_t>(i / kFiles) * 4 * KiB;
  };
  auto slot_data = [](int i, std::uint64_t version) {
    auto data = pattern_data(4 * KiB, version * kAll + static_cast<unsigned>(i));
    std::memcpy(data.data(), &version, sizeof version);
    return data;
  };
  for (int w : {2, 4, 8}) {
    EmulatedPfs pfs(fast_pfs());
    IonParams params = fast_ion();
    params.workers = w;
    IonDaemon daemon(0, params, pfs);
    ASSERT_EQ(daemon.flushers(), w);
    run_with_watchdog(std::chrono::seconds(60),
                      "fsync/drain at workers=" + std::to_string(w), [&] {
      // acked[i]: the newest acknowledged version of slot i.
      std::array<std::atomic<std::uint64_t>, kAll> acked{};
      auto thread_body = [&](int t) {
        iofa::Rng rng(static_cast<std::uint64_t>(100 * w + t));
        for (int r = 0; r < kRounds; ++r) {
          for (int k = 0; k < 3; ++k) {
            const int i = (t * kFiles * kSlots) +
                          static_cast<int>(rng.next() % (kFiles * kSlots));
            const std::uint64_t version = acked[i].load() + 1;
            auto req = write_req(slot_path(i), slot_offset(i),
                                 slot_data(i, version));
            auto slot = wait_on(req);
            EXPECT_EQ(daemon.try_submit(std::move(req), mode),
                      SubmitResult::kAccepted);
            EXPECT_EQ(slot->wait().value, 4 * KiB);
            acked[i].store(version);
          }
          std::array<std::uint64_t, kAll> before{};
          for (int i = 0; i < kAll; ++i) before[i] = acked[i].load();
          auto sync = fsync_req(slot_path(t));
          auto slot = wait_on(sync);
          EXPECT_EQ(daemon.try_submit(std::move(sync), mode),
                    SubmitResult::kAccepted);
          EXPECT_TRUE(slot->wait().ok());
          for (int i = 0; i < kAll; ++i) {
            if (before[i] == 0) continue;
            std::vector<std::byte> out(4 * KiB);
            ASSERT_EQ(pfs.read(slot_path(i), slot_offset(i), 4 * KiB, out),
                      4 * KiB)
                << "slot " << i << " missing after fsync at workers=" << w;
            std::uint64_t on_pfs = 0;
            std::memcpy(&on_pfs, out.data(), sizeof on_pfs);
            EXPECT_GE(on_pfs, before[i])
                << "slot " << i << " acked before the fsync but not on "
                << "the PFS at workers=" << w;
            if (i / (kFiles * kSlots) == t) {
              // Own slot: no newer version can be in flight.
              EXPECT_EQ(out, slot_data(i, before[i])) << "slot " << i;
            }
          }
        }
      };
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) threads.emplace_back(thread_body, t);
      for (auto& th : threads) th.join();
      daemon.drain();
    });
  }
}

TEST(IonDaemon, FsyncBarrierHoldsOnTheSharedFlushQueue) {
  fsync_barrier_holds_on_the_shared_flush_queue(SubmitMode::kQueue);
}

TEST(IonDaemon, FsyncBarrierHoldsOnTheSharedFlushQueueInline) {
  fsync_barrier_holds_on_the_shared_flush_queue(SubmitMode::kInlineWhenIdle);
}

TEST(IonDaemon, PartlyDirtyReadTakesCleanBytesFromThePfs) {
  // A read range that is only partly staged here: the dirty bytes come
  // from staging, the clean ones from the PFS (not zero-filled from a
  // staging store that never held them). The PFS is slow enough that
  // each staged 4 KiB write stays dirty for ~40 ms.
  PfsParams slow = fast_pfs();
  slow.write_bandwidth = 1.0e5;
  slow.op_overhead = 0;
  EmulatedPfs pfs(slow);
  const std::vector<std::byte> on_pfs(4 * KiB, std::byte{0xAA});
  ASSERT_TRUE(pfs.write("/mix", 4 * KiB, 4 * KiB, on_pfs));
  pfs.write("/warm", 0, static_cast<Bytes>(8 * MiB), {});  // drain the burst

  IonDaemon daemon(0, fast_ion(), pfs);
  const auto staged = pattern_data(4 * KiB, 11);
  auto wreq = write_req("/mix", 0, staged);
  auto wslot = wait_on(wreq);
  ASSERT_TRUE(daemon.submit(std::move(wreq)));
  ASSERT_TRUE(wslot->wait().ok());

  auto rreq = read_req("/mix", 0, 8 * KiB);
  iofa::Payload buf = rreq.payload;
  auto rslot = wait_on(rreq);
  ASSERT_TRUE(daemon.submit(std::move(rreq)));
  EXPECT_EQ(rslot->wait().value, 8 * KiB);
  const auto got = buf.span();
  EXPECT_TRUE(std::equal(staged.begin(), staged.end(), got.begin()))
      << "dirty half not served from staging";
  EXPECT_TRUE(std::equal(on_pfs.begin(), on_pfs.end(), got.begin() + 4096))
      << "clean half not served from the PFS";
  // A read that needed the PFS for any byte counts as a PFS read.
  EXPECT_EQ(daemon.stats().reads_pfs, 1u);
  EXPECT_EQ(daemon.stats().reads_local, 0u);

  // A clean hole past the PFS's end of file reads as zeros when a dirty
  // segment follows it, and the read ends with that segment.
  auto w2 = write_req("/mix", 12 * KiB, staged);
  auto w2slot = wait_on(w2);
  ASSERT_TRUE(daemon.submit(std::move(w2)));
  ASSERT_TRUE(w2slot->wait().ok());
  auto r2 = read_req("/mix", 8 * KiB, 8 * KiB);
  iofa::Payload buf2 = r2.payload;
  std::fill(buf2.span().begin(), buf2.span().end(), std::byte{0x55});
  auto r2slot = wait_on(r2);
  ASSERT_TRUE(daemon.submit(std::move(r2)));
  EXPECT_EQ(r2slot->wait().value, 8 * KiB);
  const auto got2 = buf2.span();
  EXPECT_TRUE(std::all_of(got2.begin(), got2.begin() + 4096,
                          [](std::byte b) { return b == std::byte{0}; }))
      << "hole not zero-filled";
  EXPECT_TRUE(std::equal(staged.begin(), staged.end(), got2.begin() + 4096));
}

TEST(IonDaemon, PathsInternedOncePerFile) {
  // Zero-allocation hot path: the submit boundary interns each distinct
  // path exactly once; every later hop (shard queues, flush items,
  // PFS writes, staged reads) carries only the 64-bit file id.
  telemetry::Registry reg;
  EmulatedPfs pfs(fast_pfs());
  IonParams params = fast_ion();
  params.workers = 4;
  params.registry = &reg;
  IonDaemon daemon(0, params, pfs);

  constexpr int kFiles = 5;
  constexpr int kRounds = 8;
  std::vector<std::shared_ptr<WaitSlot>> slots;
  for (int r = 0; r < kRounds; ++r) {
    for (int f = 0; f < kFiles; ++f) {
      auto req = write_req("/in" + std::to_string(f),
                           static_cast<std::uint64_t>(r) * 4096,
                           pattern_data(4096, static_cast<std::uint64_t>(f)));
      slots.push_back(wait_on(req));
      ASSERT_TRUE(daemon.submit(std::move(req)));
    }
  }
  for (auto& s : slots) EXPECT_EQ(s->wait().value, 4096u);
  daemon.drain();

  EXPECT_EQ(daemon.paths().size(), static_cast<std::size_t>(kFiles));
  EXPECT_EQ(reg.counter("fwd.ion.path_interned", {{"ion", "0"}}).value(),
            static_cast<std::uint64_t>(kFiles));
  // Read-back resolves the interned path, no re-intern.
  auto rreq = read_req("/in0", 0, 4096);
  iofa::Payload buf = rreq.payload;
  auto rslot = wait_on(rreq);
  ASSERT_TRUE(daemon.submit(std::move(rreq)));
  EXPECT_EQ(rslot->wait().value, 4096u);
  EXPECT_EQ(daemon.paths().size(), static_cast<std::size_t>(kFiles));
}

}  // namespace
}  // namespace iofa::fwd
