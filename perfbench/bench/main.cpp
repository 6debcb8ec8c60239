// perfbench: runs one seeded workload against the forwarding stack and
// prints its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Any output mismatch exits 1.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/spans.hpp"
#include "bench/stats.hpp"
#include "bench/workloads.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace perfbench;

/// Fresh deployments built per run; setup_s is their median.
constexpr int kSetups = 21;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (const auto& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 3600.0)) usage("bad --seconds");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// "p50 X us; p99 Y us (n=N)": the median and the highest tail that has
/// at least ten samples beyond it.
std::string latency_line(const std::vector<double>& v) {
  const auto med = percentile(v, 0.5);
  char buf[160];
  const double q = highest_tail_q(med.count);
  if (q == 0.0) {
    std::snprintf(buf, sizeof buf, "p50 %.1f us (n=%zu)", med.value,
                  med.count);
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.1f us, p%g %.1f us (n=%zu)",
                  med.value, q * 100.0, percentile(v, q).value, med.count);
  }
  return buf;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << num << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// The nine end-to-end metrics of one measured phase.
std::vector<Metric> end_to_end(const Samples& s, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_MB", peak_rss_mb(), "MB"},
      {"write_p50_us", percentile(s.write_us, 0.5).value, "us"},
      {"read_p50_us", percentile(s.read_us, 0.5).value, "us"},
      {"write_MBps", s.write_MBps.median(), "MB/s"},
      {"read_MBps", s.read_MBps.median(), "MB/s"},
      {"remap_p50_us", percentile(s.remap_us, 0.5).value, "us"},
      {"events_per_s", s.events_per_s.median(), "1/s"},
      {"predicted_MBps",
       ratio(s.predicted_sum, static_cast<double>(s.events)), "MB/s"},
  };
}

void print_summary(const std::string& workload, const Samples& s) {
  std::cout << "workload " << workload << ": " << s.attempted
            << " attempted, " << s.failed << " failed, wall "
            << s.wall_s << " s\n"
            << "  pwrite  " << latency_line(s.write_us) << "\n"
            << "  pread   " << latency_line(s.read_us) << "\n"
            << "  fsync   " << latency_line(s.fsync_us) << "\n"
            << "  remap   " << latency_line(s.remap_us) << "\n"
            << "  write MB/s median of " << s.write_MBps.windows.size()
            << " windows " << s.write_MBps.median() << ", overall "
            << s.write_MBps.mean() << "\n"
            << "  read MB/s median of " << s.read_MBps.windows.size()
            << " windows " << s.read_MBps.median() << ", overall "
            << s.read_MBps.mean() << "\n"
            << "  events/s median of " << s.events_per_s.windows.size()
            << " windows " << s.events_per_s.median() << ", overall "
            << s.events_per_s.mean() << "\n"
            << "  closed-loop data ops/s "
            << ratio(static_cast<double>(s.data_ops), s.busy_s()) << "\n";
  for (const auto& e : s.errors) std::cout << "  FAILED: " << e << "\n";
}

/// Durations of the job events' arbiter, publish and fetch children,
/// summed per event.
std::vector<double> event_part_sums(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, double> by_root;
  std::map<std::uint64_t, bool> is_event;
  for (const auto& sp : spans) {
    if (std::string(sp.name) == "job.event") is_event[sp.id] = true;
  }
  for (const auto& sp : spans) {
    if (is_event.count(sp.parent)) by_root[sp.parent] += sp.dur_us();
  }
  std::vector<double> out;
  for (const auto& [id, v] : by_root) out.push_back(v);
  return out;
}

int run(const Args& a) {
  std::vector<double> setups;
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) usage("unknown workload " + a.workload);
  if (w->cores() > 0 && !pin_to(last_cores(w->cores()))) {
    std::cerr << "perfbench: could not pin to " << w->cores()
              << " core(s); running unpinned\n";
  }
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const double t0 = now_us();
    w = make_workload(a.workload, a.seed);
    w->setup();
    setups.push_back((now_us() - t0) * 1e-6);
  }
  w->warm_up();
  const double setup_s = percentile(setups, 0.5).value;
  auto& reg = iofa::telemetry::Registry::global();

  if (!a.trace) {
    Samples s;
    w->run(a.seconds, s, nullptr);
    w->drain(nullptr);
    w.reset();
    print_summary(a.workload, s);
    std::cout << "  setup_s median of " << kSetups << " set-ups, min "
              << percentile(setups, 0.0).value << " s, max "
              << percentile(setups, 1.0).value << " s\n";
    const bool ok = s.failed == 0;
    print_json(ok, s.attempted, s.failed, end_to_end(s, setup_s));
    return ok ? 0 : 1;
  }

  // Traced run: an untraced half for the tracing overhead, then a
  // traced half whose spans and registry deltas give the layer numbers.
  Samples base;
  w->run(a.seconds / 2, base, nullptr);
  SpanRecorder rec;
  Samples s;
  const auto before = reg.snapshot();
  w->run(a.seconds / 2, s, &rec);
  const auto after = reg.snapshot();
  w->drain(&rec);
  const ProbeShape shape = w->shape();
  w.reset();
  const ProbeResults pr = run_probes(shape, a.seed);
  const auto spans = rec.spans();

  if (!a.trace_out.empty()) {
    std::ofstream out(a.trace_out);
    write_chrome_trace(out, spans);
    if (!out) {
      std::cerr << "perfbench: cannot write " << a.trace_out << "\n";
      return 1;
    }
  }

  const auto d = [&](const char* name) {
    return counter_delta(before, after, name);
  };
  const double ops = static_cast<double>(s.data_ops);
  const double frames = d("rpc.frames_sent");
  std::vector<double> arbiter = durations(spans, "core.arbiter.job_started");
  for (double v : durations(spans, "core.arbiter.job_finished")) {
    arbiter.push_back(v);
  }
  const bool churn = a.workload == "job-churn";
  const double headline_base =
      percentile(churn ? base.remap_us : base.write_us, 0.5).value;
  const double headline_traced =
      percentile(churn ? s.remap_us : s.write_us, 0.5).value;
  const double write_p50 = percentile(base.write_us, 0.5).value;
  const double read_p50 = percentile(base.read_us, 0.5).value;
  const double residual_w = write_p50 - pr.inproc_write_us - pr.tcp_rtt_us;
  const double residual_r = read_p50 - pr.inproc_read_us - pr.tcp_rtt_us;
  const double drain_ms =
      percentile(durations(spans, "fwd.service.drain"), 0.5).value / 1e3;
  const double local = d("fwd.ion.reads_local");

  const std::vector<Metric> layers = {
      {"fwd.client.subreqs_per_op", ratio(d("fwd.client.forwarded_ops"), ops),
       "ratio"},
      {"fwd.client.payload_heap_allocs", d("fwd.client.payload_allocs"),
       "count"},
      {"fwd.client.retries", d("fwd.retries"), "count"},
      {"rpc.frames_per_op", ratio(frames, ops), "ratio"},
      {"rpc.encode_us", pr.encode_us, "us"},
      {"rpc.decode_us", pr.decode_us, "us"},
      {"rpc.tcp_rtt_us", pr.tcp_rtt_us, "us"},
      {"rpc.retries", d("rpc.retries"), "count"},
      {"rpc.dedup_hits", d("rpc.dedup_hits"), "count"},
      {"rpc.ops_per_frame", ratio(ops, frames), "ratio"},
      {"fwd.inproc.write_p50_us", pr.inproc_write_us, "us"},
      {"fwd.inproc.read_p50_us", pr.inproc_read_us, "us"},
      {"fwd.endpoint.residual_write_us", residual_w, "us"},
      {"fwd.endpoint.residual_read_us", residual_r, "us"},
      {"fwd.ion.queue_wait_p50_us",
       delta_quantile(before, after, "fwd.ion.queue_wait_us", 0.5).value,
       "us"},
      {"fwd.ion.request_latency_p50_us",
       delta_quantile(before, after, "fwd.ion.request_latency_us", 0.5).value,
       "us"},
      {"fwd.ion.reads_local_share", ratio(local, local + d("fwd.ion.reads_pfs")),
       "ratio"},
      {"fwd.ion.completion_ring_full", d("fwd.ion.completion_ring_full"),
       "count"},
      {"fwd.ion.flush_steals", d("fwd.ion.flush_steals"), "count"},
      {"fwd.ion.flush_extents_per_pfs_write",
       ratio(d("fwd.pfs.write_ops") + d("fwd.ion.flush_coalesced_extents"),
             d("fwd.pfs.write_ops")),
       "ratio"},
      {"fwd.fsync_p50_us", percentile(s.fsync_us, 0.5).value, "us"},
      {"fwd.drain_ms", drain_ms, "ms"},
      {"agios.requests_per_dispatch",
       ratio(d("agios.requests"), d("agios.dispatches")), "ratio"},
      {"fwd.pfs.write_ops", d("fwd.pfs.write_ops"), "count"},
      {"fwd.pfs.bytes_per_write",
       ratio(d("fwd.pfs.bytes_written"), d("fwd.pfs.write_ops")), "B"},
      {"fwd.pfs.read_ops", d("fwd.pfs.read_ops"), "count"},
      {"fwd.pfs.lock_contention", d("fwd.pfs.lock_contention"), "count"},
      {"fwd.pfs.probe_write_MBps", pr.pfs_write_MBps, "MB/s"},
      {"common.slab.exhausted", d("fwd.ion.slab.exhausted"), "count"},
      {"core.arbiter.event_p50_us", percentile(arbiter, 0.5).value, "us"},
      {"core.arbiter.solve_p50_us",
       delta_quantile(before, after, "core.arbiter.solve_us", 0.5).value,
       "us"},
      {"core.arbiter.incremental_share",
       ratio(d("core.arbiter.incremental_solves"),
             d("core.arbiter.incremental_solves") +
                 d("core.arbiter.full_fallbacks")),
       "ratio"},
      {"core.arbiter.full_fallbacks", d("core.arbiter.full_fallbacks"),
       "count"},
      {"core.mckp.fresh_solve_p50_us",
       percentile(s.fresh_solve_us, 0.5).value, "us"},
      {"fwd.mapping.publish_p50_us",
       percentile(durations(spans, "fwd.mapping.publish"), 0.5).value, "us"},
      {"fwd.mapping.fetch_p50_us",
       percentile(durations(spans, "fwd.mapping.fetch"), 0.5).value, "us"},
      {"fwd.mapping.remaps_per_fetch",
       ratio(d("fwd.client.remaps"), d("fwd.client.polls")), "ratio"},
      {"trace.overhead_pct",
       100.0 * ratio(headline_traced - headline_base, headline_base), "%"},
  };

  for (const auto& e : base.errors) std::cout << "  FAILED: " << e << "\n";
  print_summary(a.workload, s);
  std::cout << "per-layer (traced half, registry deltas, probes):\n";
  for (const auto& m : layers) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }

  std::uint64_t failed = base.failed + s.failed + pr.failed;
  // Payloads must come from the slab pool, and the pool must not run dry.
  for (const char* name :
       {"fwd.client.payload_allocs", "fwd.ion.slab.exhausted"}) {
    if (d(name) != 0.0) {
      std::cout << "  FAILED: " << name << " rose by " << d(name) << "\n";
      ++failed;
    }
  }

  // Decomposition: the event's arbiter, publish and fetch spans must
  // account for the remap time; the sync write/read budgets are printed
  // beside the measured p50s.
  const double parts = percentile(event_part_sums(spans), 0.5).value;
  const double remap = percentile(s.remap_us, 0.5).value;
  const double gap = std::fabs(parts - remap) / remap;
  std::cout << "decomposition:\n  arbiter+publish+fetch p50 " << parts
            << " us vs remap_p50_us " << remap << " us (" << gap * 100.0
            << "% apart, limit 10%); event self time p50 "
            << percentile(self_times(spans, "job.event"), 0.5).value
            << " us\n"
            << "  write: inproc " << pr.inproc_write_us << " + tcp_rtt "
            << pr.tcp_rtt_us << " + residual " << residual_w << " = "
            << write_p50 << " us write_p50_us\n"
            << "  read:  inproc " << pr.inproc_read_us << " + tcp_rtt "
            << pr.tcp_rtt_us << " + residual " << residual_r << " = "
            << read_p50 << " us read_p50_us\n"
            << "  trace.overhead_pct "
            << 100.0 * ratio(headline_traced - headline_base, headline_base)
            << " (" << (churn ? "remap" : "write") << " p50 traced "
            << headline_traced << " vs untraced " << headline_base << ")\n"
            << "  " << spans.size() << " spans"
            << (a.trace_out.empty() ? "" : " written to " + a.trace_out)
            << "\n";
  if (churn && !(gap <= 0.10)) {
    std::cout << "  FAILED: job-churn spans miss remap_p50_us by more than "
                 "10%\n";
    ++failed;
  }
  const bool ok = failed == 0;
  print_json(ok, s.attempted + base.attempted, failed, layers);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << ": " << e.what() << "\n";
    return 1;
  }
}
