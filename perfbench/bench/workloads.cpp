#include "bench/workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench/stats.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "fwd/client.hpp"
#include "fwd/mapping.hpp"
#include "fwd/service.hpp"
#include "platform/perf_model.hpp"
#include "platform/profile.hpp"
#include "rpc/codec.hpp"
#include "rpc/tcp_transport.hpp"

namespace perfbench {
namespace {

namespace core = iofa::core;
namespace fwd = iofa::fwd;
namespace platform = iofa::platform;
namespace rpc = iofa::rpc;
using iofa::KiB;
using iofa::MiB;

/// Events between two checks of the incremental arbiter against a
/// fresh MckpPolicy solve of the same running set.
constexpr std::uint64_t kFreshEvery = 16;
/// Client/view poll period: far beyond any run, so mappings move only
/// when the benchmark refreshes them after an event.
constexpr double kNoPoll = 3600.0;

using Curves = std::vector<std::pair<std::string, platform::BandwidthCurve>>;

/// Fill `buf` with a pattern that depends on every bit of `tag`, so a
/// stale or misplaced extent never compares equal.
void fill(std::span<std::byte> buf, std::uint64_t tag) {
  iofa::SplitMix64 sm(tag);
  for (std::size_t i = 0; i + 8 <= buf.size(); i += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(buf.data() + i, &v, 8);
  }
}

/// The 189 MN4 scenario curves; with `pool` > 0 only those a job alone
/// on a pool of that size would take the whole pool for, so a lone
/// job is always forwarded through every ION.
Curves mn4_curves(int pool) {
  const auto db = platform::mn4_scenario_profiles(
      platform::PerfModel(platform::mn4_params()));
  Curves out;
  for (const auto& label : db.labels()) {
    const auto& c = db.at(label);
    if (pool == 0 || (c.has_option(pool) && c.best_option_up_to(pool) == pool)) {
      out.emplace_back(label, c);
    }
  }
  if (out.empty()) throw std::runtime_error("no MN4 curve fits the pool");
  return out;
}

/// Draws without replacement from a seeded shuffle, reshuffling when
/// exhausted, so averages over many draws barely depend on the seed.
class Deck {
 public:
  Deck(Curves cards, std::uint64_t seed)
      : cards_(std::move(cards)), rng_(seed) {
    order_.resize(cards_.size());
  }

  const std::pair<std::string, platform::BandwidthCurve>& draw() {
    if (next_ == 0 || next_ == order_.size()) {
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_.shuffle(order_);
      next_ = 0;
    }
    return cards_[order_[next_++]];
  }

 private:
  Curves cards_;
  iofa::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

/// No bandwidth cap binds and dispatch is FIFO, so per-request software
/// cost is what shows.
fwd::ServiceConfig fast_config(int ions, rpc::TransportKind transport,
                               std::uint64_t seed) {
  fwd::ServiceConfig cfg;
  cfg.ion_count = ions;
  cfg.pfs.write_bandwidth = 8.0e9;
  cfg.pfs.read_bandwidth = 8.0e9;
  cfg.pfs.op_overhead = 4 * KiB;
  cfg.pfs.contention_coeff = 0.0;
  cfg.ion.ingest_bandwidth = 8.0e9;
  cfg.ion.op_overhead = 4 * KiB;
  cfg.ion.scheduler.kind = iofa::agios::SchedulerKind::Fifo;
  cfg.transport = transport;
  cfg.rpc_seed = seed;
  return cfg;
}

fwd::ClientConfig client_config(core::JobId job, const char* label) {
  fwd::ClientConfig cc;
  cc.job = job;
  cc.app_label = label;
  cc.poll_period = kNoPoll;
  return cc;
}

/// The deployment: forwarding service, MCKP arbiter over its IONs, and
/// one mapping view per job the benchmark has seen.
class Plane {
 public:
  explicit Plane(fwd::ServiceConfig cfg)
      : svc_(std::move(cfg)),
        arb_(std::make_shared<core::MckpPolicy>(), arbiter_options(svc_)) {}

  fwd::ForwardingService& svc() { return svc_; }
  const core::Mapping& mapping() const { return arb_.mapping(); }

  void start(core::JobId id, core::AppEntry app, Samples& s,
             SpanRecorder* rec) {
    event(id, &app, s, rec);
  }
  void finish(core::JobId id, Samples& s, SpanRecorder* rec) {
    event(id, nullptr, s, rec);
  }

  /// IONs the current mapping gives `id` (empty = direct PFS).
  std::vector<int> ions_of(core::JobId id) const {
    const auto it = arb_.mapping().jobs.find(id);
    return it == arb_.mapping().jobs.end() ? std::vector<int>{}
                                           : it->second.ions;
  }

 private:
  static core::ArbiterOptions arbiter_options(fwd::ForwardingService& svc) {
    core::ArbiterOptions o;
    o.pool = svc.ion_count();
    o.incremental = true;
    return o;
  }

  fwd::ClientMappingView& view(core::JobId id) {
    auto& v = views_[id];
    if (!v) {
      v = std::make_unique<fwd::ClientMappingView>(svc_.mapping_port(), id,
                                                   kNoPoll);
    }
    return *v;
  }

  /// One job event: re-solve, publish, and refresh the job's view. The
  /// remap time runs from the arbiter call to the refreshed view.
  void event(core::JobId id, const core::AppEntry* app, Samples& s,
             SpanRecorder* rec) {
    auto& v = view(id);
    const std::uint64_t req = rec ? rec->next_id() : 0;
    ++s.attempted;
    double t1 = 0.0;
    {
      Span root(rec, "job.event", 0, req);
      const double t0 = now_us();
      {
        Span sp(rec, app ? "core.arbiter.job_started"
                         : "core.arbiter.job_finished",
                root.id(), req);
        if (app) {
          arb_.job_started(id, *app);
        } else {
          arb_.job_finished(id);
        }
      }
      {
        Span sp(rec, "fwd.mapping.publish", root.id(), req);
        svc_.apply_mapping(arb_.mapping());
      }
      {
        Span sp(rec, "fwd.mapping.fetch", root.id(), req);
        v.refresh_now();
      }
      t1 = now_us();
      s.remap_us.push_back(t1 - t0);
      s.count_event((t1 - t0) * 1e-6);
    }

    if (app) {
      running_[id] = *app;
      curves_[id] = app->curve;
    } else {
      running_.erase(id);
      curves_.erase(id);
    }
    const auto& m = arb_.mapping();
    if (v.observed_epoch() != m.epoch || v.ions() != ions_of(id)) {
      s.fail("job " + std::to_string(id) + ": view at epoch " +
             std::to_string(v.observed_epoch()) + " but mapping epoch " +
             std::to_string(m.epoch));
    }
    s.predicted_sum += eq2_sum(m, curves_);
    // Due every kFreshEvery events; an empty running set defers it.
    if (++events_ % kFreshEvery == 0) fresh_due_ = true;
    if (fresh_due_ && !running_.empty()) {
      fresh_check(s);
      fresh_due_ = false;
    }
    s.overhead_s += (now_us() - t1) * 1e-6;
  }

  /// The incremental arbiter's counts must equal a fresh MCKP solve of
  /// the same running set (in JobId order, as the arbiter orders it).
  void fresh_check(Samples& s) {
    core::AllocationProblem p;
    p.pool = arb_.pool();
    for (const auto& [id, app] : running_) p.apps.push_back(app);
    const double t0 = now_us();
    const auto alloc = core::MckpPolicy().allocate(p);
    s.fresh_solve_us.push_back(now_us() - t0);
    std::size_t i = 0;
    for (const auto& [id, app] : running_) {
      const bool shared = i < alloc.shared.size() && alloc.shared[i] != 0;
      const int want = shared ? 0 : alloc.ions[i];
      const auto it = arb_.last_counts().find(id);
      if (it == arb_.last_counts().end() || it->second != want) {
        s.fail("job " + std::to_string(id) +
               ": incremental count differs from a fresh MCKP solve");
      }
      ++i;
    }
  }

  fwd::ForwardingService svc_;
  core::Arbiter arb_;
  std::map<core::JobId, core::AppEntry> running_;
  std::map<core::JobId, platform::BandwidthCurve> curves_;
  /// Declared after svc_: views hold its mapping port.
  std::map<core::JobId, std::unique_ptr<fwd::ClientMappingView>> views_;
  std::uint64_t events_ = 0;
  bool fresh_due_ = false;
};

core::AppEntry app_of(const std::pair<std::string, platform::BandwidthCurve>&
                          card) {
  core::AppEntry app;
  app.label = card.first;
  app.curve = card.second;
  return app;
}

double elapsed_s(double t0_us) { return (now_us() - t0_us) * 1e-6; }

void throw_if_failed(const Samples& warm) {
  if (warm.failed) throw std::runtime_error("warm-up: " + warm.errors[0]);
}

// One-rank client calls under a root span, recorded into `s`. Callers
// check the returned byte counts and the data.

std::size_t timed_pwrite(fwd::Client& c, const std::string& path,
                         std::uint64_t off, std::span<const std::byte> buf,
                         Samples& s, SpanRecorder* rec) {
  const std::uint64_t req = rec ? rec->next_id() : 0;
  const double t0 = now_us();
  std::size_t n = 0;
  {
    Span sp(rec, "fwd.client.pwrite", 0, req);
    n = c.pwrite(0, path, off, buf.size(), buf);
  }
  const double dt = now_us() - t0;
  s.write_us.push_back(dt);
  s.write_MBps.add(static_cast<double>(n) / 1e6, dt * 1e-6);
  ++s.attempted;
  ++s.data_ops;
  return n;
}

std::size_t timed_pread(fwd::Client& c, const std::string& path,
                        std::uint64_t off, std::span<std::byte> buf,
                        Samples& s, SpanRecorder* rec) {
  const std::uint64_t req = rec ? rec->next_id() : 0;
  const double t0 = now_us();
  std::size_t n = 0;
  {
    Span sp(rec, "fwd.client.pread", 0, req);
    n = c.pread(0, path, off, buf.size(), buf);
  }
  const double dt = now_us() - t0;
  s.read_us.push_back(dt);
  s.read_MBps.add(static_cast<double>(n) / 1e6, dt * 1e-6);
  ++s.attempted;
  ++s.data_ops;
  return n;
}

/// Counted as write time: an fsync is part of getting data written.
void timed_fsync(fwd::Client& c, const std::string& path, Samples& s,
                 SpanRecorder* rec) {
  const std::uint64_t req = rec ? rec->next_id() : 0;
  const double t0 = now_us();
  {
    Span sp(rec, "fwd.client.fsync", 0, req);
    c.fsync(path);
  }
  const double dt = now_us() - t0;
  s.fsync_us.push_back(dt);
  s.write_MBps.add(0.0, dt * 1e-6);
  ++s.attempted;
}

/// A thread that runs one task at a time for a caller that waits for
/// it. It stays on the cores its creator was pinned to.
class Rank {
 public:
  Rank() : thread_([this] { loop(); }) {}
  ~Rank() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  void run(std::function<void()> task) {
    std::unique_lock<std::mutex> lk(mu_);
    task_ = std::move(task);
    cv_.notify_all();
    cv_.wait(lk, [&] { return !task_; });
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || task_; });
      if (!task_) return;
      lk.unlock();
      std::exception_ptr error;
      try {
        task_();
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      error_ = error;
      task_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> task_;
  std::exception_ptr error_;
  bool stop_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

/// A workload over one Plane. The derived classes' clients are
/// destroyed before the plane they hold.
class PlaneWorkload : public Workload {
 public:
  void drain(SpanRecorder* rec) override {
    Span sp(rec, "fwd.service.drain", 0, 0);
    plane_->svc().drain();
  }

 protected:
  std::unique_ptr<Plane> plane_;
};

// --- sync-small-tcp --------------------------------------------------------

class SyncSmallTcp final : public PlaneWorkload {
 public:
  explicit SyncSmallTcp(std::uint64_t seed)
      : seed_(seed), rng_(seed), deck_(mn4_curves(kPool), seed ^ 0xC0FFEE) {}

  /// Ends with the first verified pair, which pays the stack's lazy
  /// start-up: TCP connect, slab arena, path interning, first chunk.
  void setup() override {
    plane_ = std::make_unique<Plane>(
        fast_config(kPool, rpc::TransportKind::kTcp, seed_));
    wbuf_.resize(kBlock);
    rbuf_.resize(kBlock);
    Samples warm;
    start_job(warm, nullptr);
    client_ = std::make_unique<fwd::Client>(client_config(kJob, "sync"),
                                            plane_->svc());
    pair(0, warm, nullptr);
    throw_if_failed(warm);
  }

  /// Pairs at fixed offsets, so the warm-up does the same work on every
  /// seed and leaves the seeded offsets to the measured phase.
  void warm_up() override {
    Samples warm;
    for (std::uint64_t i = 1; i < 32; ++i) pair(i * kBlock, warm, nullptr);
    restart(warm, nullptr);
    throw_if_failed(warm);
  }

  void run(double seconds, Samples& s, SpanRecorder* rec) override {
    const double t0 = now_us();
    while (elapsed_s(t0) < seconds) {
      pair(rng_.index(kFile / kBlock) * kBlock, s, rec);
      if (++pairs_ % kPairsPerJob == 0) restart(s, rec);
    }
    s.wall_s = elapsed_s(t0);
  }

  ProbeShape shape() const override {
    ProbeShape p;
    p.op_bytes = kBlock;
    p.file_bytes = kFile;
    p.ions = kPool;
    return p;
  }

  /// One op in flight: a second core would only add wakeup latency.
  int cores() const override { return 1; }

 private:
  static constexpr int kPool = 1;
  static constexpr std::uint64_t kBlock = 16 * KiB;
  static constexpr std::uint64_t kFile = 16 * MiB;
  static constexpr std::uint64_t kPairsPerJob = 16;
  static constexpr std::chrono::microseconds kSettle{1000};
  static constexpr core::JobId kJob = 1;
  static constexpr const char* kPath = "/sync/data";

  void start_job(Samples& s, SpanRecorder* rec) {
    plane_->start(kJob, app_of(deck_.draw()), s, rec);
    if (plane_->ions_of(kJob).size() != static_cast<std::size_t>(kPool)) {
      s.fail("job not mapped to the whole pool");
    }
  }

  /// The application closes its file and is resubmitted with a new
  /// curve: fsync, finish, start, and the client picks up the mapping.
  void restart(Samples& s, SpanRecorder* rec) {
    timed_fsync(*client_, kPath, s, rec);
    // The job ends once its I/O has settled. On the one core, the ION's
    // reaper and TCP readers would otherwise still be finishing the
    // fsync while the event is timed, and how often they overlap it
    // varies from run to run.
    std::this_thread::sleep_for(kSettle);
    plane_->finish(kJob, s, rec);
    start_job(s, rec);
    client_->refresh_mapping();
  }

  /// One 16 KiB write at `off`, then its read-back, compared with the
  /// bytes just written there. Each call is its own throughput window,
  /// and a job's fsync joins the window of its last write: in windows of
  /// a whole job, a stalled op hit so many windows that their median
  /// moved with the host's load.
  void pair(std::uint64_t off, Samples& s, SpanRecorder* rec) {
    double c0 = now_us();
    fill(wbuf_, seed_ ^ (++tag_ * 0x9E3779B97F4A7C15ULL));
    s.overhead_s += elapsed_s(c0);

    s.write_MBps.close();
    if (timed_pwrite(*client_, kPath, off, wbuf_, s, rec) != kBlock) {
      s.fail("short write at " + std::to_string(off));
    }
    const std::size_t n = timed_pread(*client_, kPath, off, rbuf_, s, rec);
    s.read_MBps.close();
    c0 = now_us();
    if (n != kBlock || std::memcmp(rbuf_.data(), wbuf_.data(), kBlock) != 0) {
      s.fail("read-back mismatch at " + std::to_string(off));
    }
    s.overhead_s += elapsed_s(c0);
  }

  std::uint64_t seed_;
  iofa::Rng rng_;
  Deck deck_;
  std::unique_ptr<fwd::Client> client_;
  std::vector<std::byte> wbuf_, rbuf_;
  std::uint64_t tag_ = 0;
  std::uint64_t pairs_ = 0;
};

// --- job-churn -------------------------------------------------------------

class JobChurn final : public PlaneWorkload {
 public:
  explicit JobChurn(std::uint64_t seed)
      : seed_(seed), rng_(seed), deck_(mn4_curves(0), seed ^ 0xC0FFEE) {}

  /// The IONs' threads and the sampling rank are created on one core and
  /// the caller, which runs the arbiter, moves to the other. The 12 idle
  /// IONs' timed waits (dispatcher and completion drainer) then never
  /// preempt the arbiter, and the sampled I/O's wakeups stay on one core.
  void setup() override {
    const std::vector<int> cpus = last_cores(2);
    const bool split = cpus.size() == 2 && pin_to({cpus[0]});
    plane_ = std::make_unique<Plane>(
        fast_config(kPool, rpc::TransportKind::kInProc, seed_));
    rank_ = std::make_unique<Rank>();
    if (split) pin_to({cpus[1]});
    wbuf_.resize(kBlock);
    rbuf_.resize(kBlock);
    for (core::JobId id = 1; id <= kSlots; ++id) {
      free_.push_back(id);
      clients_[id] = std::make_unique<fwd::Client>(
          client_config(id, "churn"), plane_->svc());
    }
    Samples warm;
    for (int i = 0; i < kRunning; ++i) start_one(warm, nullptr);
    throw_if_failed(warm);
  }

  void warm_up() override {
    Samples warm;
    for (int i = 0; i < 64; ++i) step(warm, nullptr);
    throw_if_failed(warm);
  }

  void run(double seconds, Samples& s, SpanRecorder* rec) override {
    const double t0 = now_us();
    while (elapsed_s(t0) < seconds) step(s, rec);
    s.wall_s = elapsed_s(t0);
  }

  ProbeShape shape() const override {
    ProbeShape p;
    p.op_bytes = kBlock;
    p.file_bytes = kFileBytes;
    p.ions = kPool;
    return p;
  }

  /// One core for the arbiter, one for the IONs and the sampling rank
  /// (see setup).
  int cores() const override { return 2; }

 private:
  static constexpr int kPool = 12;
  static constexpr int kRunning = 256;
  /// Job slots; ids are reused so per-job telemetry stays bounded.
  static constexpr core::JobId kSlots = 512;
  static constexpr std::uint64_t kIoEvery = 8;
  static constexpr std::uint64_t kBlock = 16 * KiB;
  /// One 512 KiB chunk per file, 16 files: a bounded data working set.
  static constexpr std::uint64_t kFileBytes = 512 * KiB;
  static constexpr core::JobId kFiles = 16;

  void start_one(Samples& s, SpanRecorder* rec) {
    const std::size_t i = rng_.index(free_.size());
    const core::JobId id = free_[i];
    free_[i] = free_.back();
    free_.pop_back();
    plane_->start(id, app_of(deck_.draw()), s, rec);
    running_.push_back(id);
  }

  /// The oldest job finishes: the running set is always the last
  /// kRunning curves dealt, so its Eq. 2 sum barely depends on the seed.
  void finish_one(Samples& s, SpanRecorder* rec) {
    const core::JobId id = running_.front();
    running_.pop_front();
    plane_->finish(id, s, rec);
    free_.push_back(id);
  }

  /// Finish and start alternate, so about kRunning jobs always run.
  void step(Samples& s, SpanRecorder* rec) {
    if (++steps_ % 2 == 1) {
      finish_one(s, rec);
    } else {
      start_one(s, rec);
    }
    if (steps_ % kIoEvery == 0) io_sample(s, rec);
  }

  /// A job that holds IONs under the new mapping writes 16 KiB through
  /// them, fsyncs and reads it back on the rank thread: the mapping must
  /// be usable.
  void io_sample(Samples& s, SpanRecorder* rec) {
    std::vector<core::JobId> mapped;
    for (const auto& [id, e] : plane_->mapping().jobs) {
      if (!e.ions.empty()) mapped.push_back(id);
    }
    if (mapped.empty()) {
      s.fail("no running job holds an ION");
      return;
    }
    const core::JobId id = mapped[rng_.index(mapped.size())];
    const std::string path = "/churn/f" + std::to_string(id % kFiles);
    const std::uint64_t off = rng_.index(kFileBytes / kBlock) * kBlock;
    fill(wbuf_, seed_ ^ (++tag_ * 0x9E3779B97F4A7C15ULL));

    auto& c = *clients_.at(id);
    c.refresh_mapping();
    rank_->run([&] {
      if (timed_pwrite(c, path, off, wbuf_, s, rec) != kBlock) {
        s.fail("job " + std::to_string(id) + ": short write");
      }
      timed_fsync(c, path, s, rec);
      const std::size_t n = timed_pread(c, path, off, rbuf_, s, rec);
      if (n != kBlock ||
          std::memcmp(rbuf_.data(), wbuf_.data(), kBlock) != 0) {
        s.fail("job " + std::to_string(id) + ": read-back mismatch");
      }
    });
    s.write_MBps.close();
    s.read_MBps.close();
  }

  std::uint64_t seed_;
  iofa::Rng rng_;
  Deck deck_;
  std::unique_ptr<Rank> rank_;
  std::map<core::JobId, std::unique_ptr<fwd::Client>> clients_;
  std::vector<core::JobId> free_;
  std::deque<core::JobId> running_;
  std::vector<std::byte> wbuf_, rbuf_;
  std::uint64_t steps_ = 0;
  std::uint64_t tag_ = 0;
};

double p50(std::vector<double> v) { return percentile(std::move(v), 0.5).value; }

/// Runs `body(i)` until `max_iters` iterations or `budget_s` seconds,
/// whichever comes first.
template <typename Body>
void bounded(int max_iters, double budget_s, Body body) {
  const double t0 = now_us();
  for (int i = 0; i < max_iters && elapsed_s(t0) < budget_s; ++i) body(i);
}

}  // namespace

std::vector<int> last_cores(int n) {
  static const std::vector<int> allowed = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
    return out;
  }();
  if (n <= 0 || static_cast<std::size_t>(n) > allowed.size()) return {};
  return {allowed.end() - n, allowed.end()};
}

bool pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sync-small-tcp", "job-churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sync-small-tcp") return std::make_unique<SyncSmallTcp>(seed);
  if (name == "job-churn") return std::make_unique<JobChurn>(seed);
  return nullptr;
}

ProbeResults run_probes(const ProbeShape& shape, std::uint64_t seed) {
  ProbeResults r;
  iofa::telemetry::Registry local;  // keeps probe traffic out of the counts

  // rpc: encode/decode of the workload's own request and response frames.
  rpc::SubmitRequestMsg req;
  req.op = rpc::WireOp::kWrite;
  req.file_id = 7;
  req.size = shape.op_bytes;
  req.path = "/probe/frame";
  req.payload.resize(shape.op_bytes);
  fill(req.payload, seed);
  rpc::SubmitResponseMsg rsp;
  rsp.value = shape.op_bytes;
  rsp.data = req.payload;
  {
    std::vector<double> enc, dec;
    bounded(2000, 0.3, [&](int i) {
      double t0 = now_us();
      const auto a = rpc::encode(static_cast<std::uint64_t>(i), req);
      const auto b = rpc::encode(static_cast<std::uint64_t>(i), rsp);
      enc.push_back(now_us() - t0);
      t0 = now_us();
      const auto da = rpc::decode(a);
      const auto db = rpc::decode(b);
      dec.push_back(now_us() - t0);
      const auto* qa = std::get_if<rpc::SubmitRequestMsg>(&da.msg);
      const auto* qb = std::get_if<rpc::SubmitResponseMsg>(&db.msg);
      if (!qa || !qb || qa->payload != req.payload || qb->data != rsp.data) {
        ++r.failed;
      }
    });
    r.encode_us = p50(enc);
    r.decode_us = p50(dec);
  }

  // rpc: one request frame echoed through a loopback TcpTransport.
  {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t echoed = 0;
    bool got = false;
    rpc::TcpTransport tcp;  // after what its handlers touch
    tcp.set_handler(rpc::kServerSide, [&](std::vector<std::byte> f) {
      tcp.send(rpc::kServerSide, std::move(f));
    });
    tcp.set_handler(rpc::kClientSide, [&](std::vector<std::byte> f) {
      std::lock_guard<std::mutex> lk(mu);
      echoed = f.size();
      got = true;
      cv.notify_one();
    });
    const auto frame = rpc::encode(1, req);
    std::vector<double> rtt;
    bounded(1000, 0.3, [&](int) {
      auto copy = frame;
      {
        std::lock_guard<std::mutex> lk(mu);
        got = false;
      }
      const double t0 = now_us();
      tcp.send(rpc::kClientSide, std::move(copy));
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return got; });
      rtt.push_back(now_us() - t0);
      if (echoed != frame.size()) ++r.failed;
    });
    tcp.close();
    r.tcp_rtt_us = p50(rtt);
  }

  // fwd: the workload's op shape replayed on an in-proc service with
  // FIFO dispatch and no binding cap - the non-wire share.
  {
    auto cfg = fast_config(shape.ions, rpc::TransportKind::kInProc, seed);
    cfg.pfs.registry = &local;
    cfg.ion.registry = &local;
    fwd::ForwardingService svc(cfg);
    core::Mapping m;
    m.epoch = 1;
    m.pool = shape.ions;
    core::Mapping::Entry e;
    e.app_label = "probe";
    for (int i = 0; i < shape.ions; ++i) e.ions.push_back(i);
    m.jobs[1] = e;
    svc.apply_mapping(m);
    auto cc = client_config(1, "probe");
    cc.registry = &local;
    {
      fwd::Client client(cc, svc);
      iofa::Rng rng(seed);
      std::vector<std::byte> wbuf(shape.op_bytes), rbuf(shape.op_bytes);
      std::vector<double> w, rd;
      bounded(2000 + 8, 0.5, [&](int i) {
        const std::uint64_t off =
            rng.index(shape.file_bytes / shape.op_bytes) * shape.op_bytes;
        fill(wbuf, seed ^ static_cast<std::uint64_t>(i));
        double t0 = now_us();
        const auto nw = client.pwrite(0, "/probe/inproc", off,
                                      shape.op_bytes, wbuf);
        const double dw = now_us() - t0;
        t0 = now_us();
        const auto nr = client.pread(0, "/probe/inproc", off,
                                     shape.op_bytes, rbuf);
        const double dr = now_us() - t0;
        if (nw != shape.op_bytes || nr != shape.op_bytes || wbuf != rbuf) {
          ++r.failed;
        }
        if (i >= 8) {  // the first pairs warm the pool and path table
          w.push_back(dw);
          rd.push_back(dr);
        }
      });
      r.inproc_write_us = p50(w);
      r.inproc_read_us = p50(rd);
    }
    svc.shutdown();
  }

  // fwd.pfs: the workload's extents written straight into a fresh PFS
  // with the workloads' caps - the ceiling for write_MBps.
  {
    auto params = fast_config(shape.ions, rpc::TransportKind::kInProc, seed).pfs;
    params.registry = &local;
    fwd::EmulatedPfs pfs(params);
    std::vector<std::byte> buf(shape.op_bytes);
    fill(buf, seed);
    double bytes = 0.0;
    const double t0 = now_us();
    bounded(1 << 20, 0.3, [&](int i) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(i) * shape.op_bytes) % shape.file_bytes;
      if (!pfs.write("/probe/pfs", off, shape.op_bytes, buf)) ++r.failed;
      bytes += static_cast<double>(shape.op_bytes);
    });
    r.pfs_write_MBps = bytes / 1e6 / elapsed_s(t0);
  }
  return r;
}

}  // namespace perfbench
