// Throughput bench for the zero-copy ION dispatch pipeline: one daemon,
// a fixed-seed write workload over many files, worker pool widths
// {1, 2, 4, 8}. The dispatch cost being pipelined is the modelled
// per-dispatch service latency (IonParams::dispatch_latency - RPC
// handling, syscall, interrupt cost); backend bandwidths are set
// effectively infinite so queueing at the relay is the only bottleneck.
// The scheduler is the default TO-AGG (time-window aggregation), so
// contiguous same-file requests merge into one dispatch - the
// configuration the paper's forwarding numbers use; the old bench
// forced FIFO, which serialised one 150us sleep per request and capped
// the 8-worker pipeline at ~53k ops/s.
//
// Zero-copy proof: every payload is acquired from a slab pool and only
// the refcounted handle travels the pipeline. The bench counts global
// operator new calls across the measured region and reports
// allocs_per_op; it exits non-zero if any payload fell back to the
// heap (slab pool dry) and, with --alloc-gate N, if the 8-worker run
// averaged more than N allocations per op (the ceiling that keeps
// per-request heap traffic out of the hot path for good).
//
// Reported per width: acknowledged ops/s, the p99 ingest-queue wait
// from the fwd.ion.queue_wait_us histogram, and allocs/op.
//
// Usage: bench_daemon_pipeline [--quick] [--out FILE] [--alloc-gate N]
//   --quick       1/8th of the ops (CI smoke); same seed and shape
//   --out         JSON results path (default BENCH_daemon_pipeline.json)
//   --alloc-gate  fail (exit 3) if the 8-worker run exceeds N allocs/op

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/clock.hpp"
#include "common/slab_pool.hpp"
#include "common/table.hpp"
#include "fwd/daemon.hpp"
#include "fwd/pfs_backend.hpp"
#include "fwd/wait_slot.hpp"
#include "gkfs/chunk.hpp"

// --- global allocation counter ---------------------------------------------
// Counts every (unaligned) operator new in the process; the bench reads
// deltas around the measured region. Aligned overloads stay on the
// library defaults - they pair internally and fire only at construction
// time (e.g. the completion ring's cache-line-aligned slot array).

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

// Out of line: inlined into a container destructor, GCC would pair the
// free() with the (replaced) operator new and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace iofa;

constexpr std::uint64_t kSeed = 1337;
constexpr int kFiles = 64;
constexpr std::uint64_t kRequestBytes = 64 * KiB;
constexpr Seconds kDispatchLatency = 150e-6;
// Outstanding-ops cap for the measured loop; see the submit loop comment.
constexpr int kInflightWindow = 384;

struct RunResult {
  int workers = 0;
  int ops = 0;
  Seconds elapsed = 0.0;
  double ops_per_sec = 0.0;
  double p99_queue_wait_us = 0.0;
  double mean_queue_wait_us = 0.0;
  double allocs_per_op = 0.0;
  std::uint64_t slab_acquired = 0;
  std::uint64_t heap_payloads = 0;  ///< must stay 0 (zero-copy proof)
};

RunResult run_once(int workers, int ops, SlabPool& pool) {
  telemetry::Registry reg;

  // Effectively infinite devices: the modelled dispatch latency is the
  // only cost, so the measurement isolates what the worker pool
  // pipelines.
  fwd::PfsParams pp;
  pp.write_bandwidth = 1.0e15;
  pp.read_bandwidth = 1.0e15;
  pp.op_overhead = 0;
  pp.contention_coeff = 0.0;
  pp.store_data = false;
  pp.registry = &reg;
  fwd::EmulatedPfs pfs(pp);

  fwd::IonParams ip;
  ip.ingest_bandwidth = 1.0e15;
  ip.op_overhead = 0;
  ip.queue_capacity = 1024;
  // Default scheduler: TO-AGG. Contiguous same-file writes aggregate
  // into one dispatch, so one 150us service slot acknowledges a whole
  // merged run instead of a single request.
  ip.workers = workers;
  // Accounting-only flush items are trivial; two flushers keep the
  // thread count (and single-core scheduling noise) down.
  ip.flushers = 2;
  ip.dispatch_latency = kDispatchLatency;
  ip.slab_pool = &pool;
  ip.registry = &reg;
  fwd::IonDaemon daemon(0, ip, pfs);

  // Fixed-seed workload: sequential 64 KiB writes round-robin across
  // kFiles streams (the shard router scrambles file ids, so streams
  // spread over the pool).
  Rng rng(kSeed);
  std::vector<std::string> paths;
  std::vector<std::uint64_t> next_block(kFiles, 0);
  std::vector<std::uint64_t> file_ids(kFiles, 0);
  paths.reserve(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    paths.push_back("/bench/f" + std::to_string(rng.next() % 100000) + "_" +
                    std::to_string(f));
    file_ids[static_cast<std::size_t>(f)] =
        gkfs::hash_path(paths[static_cast<std::size_t>(f)]);
  }

  // One WaitSlot continuation per op, exactly what a client pays.
  std::vector<std::shared_ptr<fwd::WaitSlot>> slots;
  slots.reserve(static_cast<std::size_t>(ops));

  // Warmup outside the measured region: lets the worker/flusher
  // threads finish starting, builds the slab arena, and faults the hot
  // code paths in, so the measured tail is the pipeline's, not the
  // thread spawner's.
  for (int i = 0; i < 2 * kFiles; ++i) {
    const auto f = static_cast<std::size_t>(i % kFiles);
    fwd::FwdRequest req;
    req.op = fwd::FwdOp::Write;
    if (next_block[f] == 0) req.path = paths[f];
    req.file_id = file_ids[f];
    req.offset = next_block[f]++ * kRequestBytes;
    req.size = kRequestBytes;
    req.payload = pool.try_acquire(kRequestBytes);
    if (req.payload.empty()) req.payload = Payload::heap(kRequestBytes);
    slots.push_back(fwd::wait_on(req));
    daemon.submit(std::move(req));
  }
  for (auto& s : slots) s->wait();
  daemon.drain();
  slots.clear();

  // The warmup's queue waits (thread spawn noise) are in the histogram;
  // keep a snapshot so the measured quantiles cover only the timed run.
  telemetry::HistogramSnapshot wait_warmup;
  {
    const auto snap = reg.snapshot();
    if (const auto* s = snap.find("fwd.ion.queue_wait_us", {{"ion", "0"}})) {
      if (s->histogram) wait_warmup = *s->histogram;
    }
  }

  const std::uint64_t heap_before = payload_heap_allocs();
  const std::uint64_t slab_before = pool.acquired();
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const Seconds t0 = monotonic_seconds();
  for (int i = 0; i < ops; ++i) {
    // Bounded in-flight window, like a real forwarding client: an
    // unbounded burst would measure the submitter's queue depth
    // (Little's law turns depth/throughput into "wait"), not the
    // pipeline's latency.
    if (i >= kInflightWindow) {
      slots[static_cast<std::size_t>(i - kInflightWindow)]->wait();
    }
    const auto f = static_cast<std::size_t>(i % kFiles);
    fwd::FwdRequest req;
    req.op = fwd::FwdOp::Write;
    // The path travels only until the daemon interns it (first touch of
    // each file); after that the 64-bit id alone addresses the stream —
    // no per-op string allocation.
    if (next_block[f] == 0) req.path = paths[f];
    req.file_id = file_ids[f];
    req.offset = next_block[f]++ * kRequestBytes;
    req.size = kRequestBytes;
    // Zero-copy path: a slab handle, never a heap buffer. The bytes are
    // left unwritten (the PFS's store_data=false drops them at the
    // stage) so the measurement stays about the pipeline, not memset
    // bandwidth.
    req.payload = pool.try_acquire(kRequestBytes);
    if (req.payload.empty()) req.payload = Payload::heap(kRequestBytes);
    slots.push_back(fwd::wait_on(req));
    daemon.submit(std::move(req));
  }
  for (auto& s : slots) s->wait();
  daemon.drain();
  const Seconds elapsed = monotonic_seconds() - t0;
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;

  RunResult r;
  r.workers = workers;
  r.ops = ops;
  r.elapsed = elapsed;
  r.ops_per_sec = static_cast<double>(ops) / elapsed;
  r.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  r.slab_acquired = pool.acquired() - slab_before;
  r.heap_payloads = payload_heap_allocs() - heap_before;
  const auto snap = reg.snapshot();
  if (const auto* s =
          snap.find("fwd.ion.queue_wait_us", {{"ion", "0"}})) {
    if (s->histogram) {
      telemetry::HistogramSnapshot d = *s->histogram;
      if (wait_warmup.count > 0 && d.buckets.size() == wait_warmup.buckets.size()) {
        d.count -= wait_warmup.count;
        d.sum -= wait_warmup.sum;
        for (std::size_t b = 0; b < d.buckets.size(); ++b) {
          d.buckets[b] -= wait_warmup.buckets[b];
        }
      }
      r.p99_queue_wait_us = d.quantile(0.99);
      r.mean_queue_wait_us = d.mean();
    }
  }
  return r;
}

std::string json_escape_free_number(double v) {
  // JSON has no Inf/NaN; the bench never produces them, but keep the
  // output well-formed if a clock hiccup ever does.
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double alloc_gate = 0.0;  // 0 = disabled
  std::string out_path = "BENCH_daemon_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--alloc-gate" && i + 1 < argc) {
      alloc_gate = std::atof(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_daemon_pipeline [--quick] [--out FILE] "
                   "[--alloc-gate N]\n";
      return 0;
    }
  }
  const int ops = quick ? 512 : 4096;

  bench::banner("ION dispatch pipeline throughput",
                "DESIGN.md: ION pipeline",
                "Zero-copy sharded workers vs the serial dispatcher, "
                "fixed seed " + std::to_string(kSeed));

  // One pool for all widths, sized so the full in-flight window of a
  // run (every shard queue full plus scheduler/staging residency) fits:
  // a dry pool would quietly turn the proof into heap traffic.
  SlabPoolConfig pool_cfg;
  pool_cfg.classes = {{kRequestBytes, 4608}};
  SlabPool pool(pool_cfg);

  Table table({"workers", "ops", "elapsed_s", "ops/s", "p99_wait_us",
               "allocs/op", "speedup"});
  std::vector<RunResult> results;
  for (int w : {1, 2, 4, 8}) {
    results.push_back(run_once(w, ops, pool));
    const auto& r = results.back();
    table.add_row({std::to_string(r.workers), std::to_string(r.ops),
                   fmt(r.elapsed, 3), fmt(r.ops_per_sec, 0),
                   fmt(r.p99_queue_wait_us, 0), fmt(r.allocs_per_op, 1),
                   fmt(r.ops_per_sec / results.front().ops_per_sec, 2)});
  }
  table.print(std::cout);

  const double speedup_4w =
      results[2].ops_per_sec / results[0].ops_per_sec;
  const double speedup_8w =
      results[3].ops_per_sec / results[0].ops_per_sec;
  std::cout << "\n4-worker speedup over serial: " << fmt(speedup_4w, 2)
            << "x; 8-worker: " << fmt(speedup_8w, 2)
            << "x (acceptance floor: 2x at 4 workers)\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"daemon_pipeline\",\n"
       << "  \"seed\": " << kSeed << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"ops\": " << ops << ",\n"
       << "  \"request_bytes\": " << kRequestBytes << ",\n"
       << "  \"files\": " << kFiles << ",\n"
       << "  \"scheduler\": \"time_window_aggregation\",\n"
       << "  \"dispatch_latency_us\": "
       << json_escape_free_number(kDispatchLatency * 1e6) << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"workers\": " << r.workers << ", \"ops_per_sec\": "
         << json_escape_free_number(r.ops_per_sec) << ", \"elapsed_s\": "
         << json_escape_free_number(r.elapsed)
         << ", \"p99_queue_wait_us\": "
         << json_escape_free_number(r.p99_queue_wait_us)
         << ", \"mean_queue_wait_us\": "
         << json_escape_free_number(r.mean_queue_wait_us)
         << ", \"allocs_per_op\": "
         << json_escape_free_number(r.allocs_per_op)
         << ", \"slab_acquired\": " << r.slab_acquired
         << ", \"heap_payloads\": " << r.heap_payloads << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"speedup_4w_vs_1w\": " << json_escape_free_number(speedup_4w)
       << ",\n"
       << "  \"speedup_8w_vs_1w\": " << json_escape_free_number(speedup_8w)
       << "\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_daemon_pipeline: cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "results written: " << out_path << "\n";

  // Zero-copy proof, unconditionally: every payload of every run came
  // from the slab pool; none fell back to the heap.
  for (const auto& r : results) {
    if (r.heap_payloads != 0 ||
        r.slab_acquired != static_cast<std::uint64_t>(r.ops)) {
      std::cerr << "FAIL: workers=" << r.workers << " acquired "
                << r.slab_acquired << "/" << r.ops << " slabs, "
                << r.heap_payloads << " heap payload(s)\n";
      return 2;
    }
  }
  if (alloc_gate > 0.0 && results.back().allocs_per_op > alloc_gate) {
    std::cerr << "FAIL: 8-worker run averaged "
              << fmt(results.back().allocs_per_op, 1)
              << " allocs/op (gate: " << fmt(alloc_gate, 1) << ")\n";
    return 3;
  }
  return 0;
}
