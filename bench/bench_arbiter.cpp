// Arbitration-latency bench for the warm-start MCKP path: sweeps the
// number of concurrent jobs (100 -> 10k) under job churn and compares
// two arbiter configurations over the SAME fixed-seed event stream.
// Both re-solve and republish on every event:
//
//   full   - incremental off: every event rebuilds the allocation
//            problem and runs the policy DP from scratch
//   inc    - warm-start on: only the max-plus tree nodes on the changed
//            job's path are re-merged (O(log n)); the backtrack then
//            descends only into those and the nodes whose weight moved,
//            and only the jobs whose count changed are rematerialised
//
// Only the churn loop's wall time is measured. Every job's curve
// includes a 0-ION direct option, so the problem is always feasible and
// the shared fallback never distorts the comparison.
//
// Acceptance gates (CI bench-smoke): at 10k jobs the inc configuration
// must be >= 10x faster than full, and an inc event must walk at most
// 40 tree nodes and rematerialise at most 1.5 mapping entries on
// average. The ratio is within one run and the work is counted, so
// none depends on the host.
//
// Usage: bench_arbiter [--quick] [--out FILE]
//   --quick   48 churn events per run instead of 192 (CI smoke)
//   --out     JSON results path (default BENCH_arbiter.json)

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/arbiter.hpp"
#include "core/policies.hpp"

namespace {

using namespace iofa;

constexpr std::uint64_t kSeed = 1337;
constexpr int kPool = 64;

struct ModeSpec {
  std::string name;
  bool incremental = false;
};

const std::vector<ModeSpec> kModes = {
    {"full", false},
    {"inc", true},
};

struct RunResult {
  std::string mode;
  int jobs = 0;
  int events = 0;
  Seconds elapsed = 0.0;
  double events_per_sec = 0.0;
  // Solves of the churn loop, without the setup's.
  double solves = 0.0;
  double incremental_solves = 0.0;
  double full_fallbacks = 0.0;
  // Per churn event: warm-tree nodes the change walks descended into and
  // mapping entries rematerialised.
  double walk_nodes_per_event = 0.0;
  double remapped_per_event = 0.0;
};

/// Random concave-ish curve over the standard options {0,1,2,4,8}. The
/// 0-ION direct option keeps every instance feasible at any capacity.
platform::BandwidthCurve make_curve(Rng& rng) {
  const double direct = rng.uniform(1.0, 10.0);
  const double b1 = rng.uniform(50.0, 150.0);
  const double b2 = b1 * rng.uniform(1.4, 1.8);
  const double b4 = b2 * rng.uniform(1.3, 1.7);
  const double b8 = b4 * rng.uniform(1.2, 1.6);
  return platform::BandwidthCurve(
      {{0, direct}, {1, b1}, {2, b2}, {4, b4}, {8, b8}});
}

core::AppEntry make_app(Rng& rng, core::JobId id) {
  core::AppEntry app;
  app.label = "job" + std::to_string(id);
  app.compute_nodes = rng.uniform_int(16, 512);
  app.processes = app.compute_nodes * rng.uniform_int(8, 24);
  app.curve = make_curve(rng);
  return app;
}

double counter_value(const telemetry::Snapshot& snap,
                     const std::string& name) {
  const auto* s = snap.find(name, {{"policy", "MCKP"}});
  return s ? s->value : 0.0;
}

RunResult run_once(const ModeSpec& mode, int jobs, int events) {
  telemetry::Registry reg;

  // Every start re-solves, so the population starts on an empty pool,
  // where each solve is the trivial all-direct one; opening the pool is
  // then one full solve in every mode, and the measured loop is pure
  // churn. The full mode still rebuilds the problem at every start:
  // its setup is O(n^2) and takes most of the bench's wall time.
  core::ArbiterOptions opts;
  opts.pool = 0;
  opts.registry = &reg;
  opts.incremental = mode.incremental;
  core::Arbiter arb(std::make_shared<core::MckpPolicy>(), opts);

  // Same seed in every mode: identical jobs, identical event stream.
  Rng rng(kSeed);
  std::vector<core::JobId> running;
  running.reserve(static_cast<std::size_t>(jobs) + 8);
  core::JobId next_id = 1;
  for (int i = 0; i < jobs; ++i) {
    arb.job_started(next_id, make_app(rng, next_id));
    running.push_back(next_id++);
  }
  arb.set_pool(kPool);
  const auto setup = reg.snapshot();

  const Seconds t0 = monotonic_seconds();
  for (int e = 0; e < events; ++e) {
    if (e % 2 == 0 && !running.empty()) {
      const std::size_t k = rng.index(running.size());
      arb.job_finished(running[k]);
      running[k] = running.back();
      running.pop_back();
    } else {
      arb.job_started(next_id, make_app(rng, next_id));
      running.push_back(next_id++);
    }
  }
  const Seconds elapsed = monotonic_seconds() - t0;

  if (arb.mapping().jobs.size() != running.size()) {
    std::cerr << "bench_arbiter: mapping out of sync after churn (mode "
              << mode.name << ", jobs " << jobs << ")\n";
    std::exit(2);
  }

  RunResult r;
  r.mode = mode.name;
  r.jobs = jobs;
  r.events = events;
  r.elapsed = elapsed;
  r.events_per_sec = static_cast<double>(events) / elapsed;
  const auto snap = reg.snapshot();
  const auto churn = [&](const std::string& name) {
    return counter_value(snap, name) - counter_value(setup, name);
  };
  r.solves = churn("core.arbiter.solves");
  r.incremental_solves = churn("core.arbiter.incremental_solves");
  r.full_fallbacks = churn("core.arbiter.full_fallbacks");
  r.walk_nodes_per_event = churn("core.arbiter.walk_nodes") / events;
  r.remapped_per_event = churn("core.arbiter.remapped_jobs") / events;
  return r;
}

std::string json_number(double v) {
  // JSON has no Inf/NaN; keep the output well-formed even if a clock
  // hiccup produces one.
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_arbiter.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_arbiter [--quick] [--out FILE]\n";
      return 0;
    }
  }
  const int events = quick ? 48 : 192;

  bench::banner("Incremental warm-start arbitration",
                "DESIGN.md: incremental arbitration",
                "Full re-solve vs warm-start, fixed seed " +
                    std::to_string(kSeed) + ", pool " + std::to_string(kPool));

  Table table({"jobs", "mode", "events", "elapsed_s", "events/s", "solves",
               "speedup", "walked/ev", "remapped/ev"});
  std::vector<RunResult> results;
  double speedup_inc_10k = 0.0;
  RunResult inc_10k;
  for (int jobs : {100, 1000, 10000}) {
    Seconds full_elapsed = 0.0;
    for (const auto& mode : kModes) {
      results.push_back(run_once(mode, jobs, events));
      const auto& r = results.back();
      if (mode.name == "full") full_elapsed = r.elapsed;
      const double speedup = full_elapsed / r.elapsed;
      if (jobs == 10000 && mode.name == "inc") {
        speedup_inc_10k = speedup;
        inc_10k = r;
      }
      table.add_row({std::to_string(r.jobs), r.mode,
                     std::to_string(r.events), fmt(r.elapsed, 4),
                     fmt(r.events_per_sec, 0), fmt(r.solves, 0),
                     fmt(speedup, 2), fmt(r.walk_nodes_per_event, 1),
                     fmt(r.remapped_per_event, 2)});
    }
  }
  table.print(std::cout);

  constexpr double kIncGateFloor = 10.0;
  // Work per inc event at 10k jobs, from the counters: measured 15.3
  // walked nodes and 0.50 rematerialised entries (each start adds its
  // own), in quick and full runs alike. A walk or materialise that
  // followed the population again would cost thousands.
  constexpr double kWalkBound = 40.0;
  constexpr double kRemapBound = 1.5;
  const bool inc_pass = speedup_inc_10k >= kIncGateFloor;
  const bool work_pass = inc_10k.walk_nodes_per_event <= kWalkBound &&
                         inc_10k.remapped_per_event <= kRemapBound;
  const bool gate_pass = inc_pass && work_pass;
  std::cout << "\ninc-vs-full speedup at 10k jobs: " << fmt(speedup_inc_10k, 2)
            << "x (acceptance floor: " << fmt(kIncGateFloor, 1) << "x) "
            << (inc_pass ? "PASS" : "FAIL") << "\n"
            << "inc work per event at 10k jobs: "
            << fmt(inc_10k.walk_nodes_per_event, 1) << " walked nodes (bound "
            << fmt(kWalkBound, 0) << "), "
            << fmt(inc_10k.remapped_per_event, 2)
            << " rematerialised entries (bound " << fmt(kRemapBound, 1)
            << ") " << (work_pass ? "PASS" : "FAIL") << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"arbiter\",\n"
       << "  \"seed\": " << kSeed << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"pool\": " << kPool << ",\n"
       << "  \"events_per_run\": " << events << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"jobs\": " << r.jobs << ", \"mode\": \"" << r.mode
         << "\", \"events\": " << r.events << ", \"elapsed_s\": "
         << json_number(r.elapsed) << ", \"events_per_sec\": "
         << json_number(r.events_per_sec) << ", \"solves\": "
         << json_number(r.solves) << ", \"incremental_solves\": "
         << json_number(r.incremental_solves) << ", \"full_fallbacks\": "
         << json_number(r.full_fallbacks) << ", \"walk_nodes_per_event\": "
         << json_number(r.walk_nodes_per_event)
         << ", \"remapped_per_event\": " << json_number(r.remapped_per_event)
         << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"speedup_inc_vs_full_10k\": " << json_number(speedup_inc_10k)
       << ",\n"
       << "  \"inc_gate_floor\": " << json_number(kIncGateFloor) << ",\n"
       << "  \"walk_nodes_bound\": " << json_number(kWalkBound) << ",\n"
       << "  \"remapped_bound\": " << json_number(kRemapBound) << ",\n"
       << "  \"gate_pass\": " << (gate_pass ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_arbiter: cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "results written: " << out_path << "\n";
  return gate_pass ? 0 : 1;
}
