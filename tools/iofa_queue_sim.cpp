// iofa_queue_sim: simulate a FIFO job queue under an arbitration policy
// on the discrete-event executor - the what-if tool for operators
// evaluating forwarding policies before changing a production system.
//
// Usage:
//   iofa_queue_sim [--policy P] [--nodes N] [--pool K] [--ratio R]
//                  [--delay S] [--queue paper|random:<seed>:<njobs>]
//                  [--fault-plan FILE] [overload flags, see --help]
//
// Jobs come from the paper's Section 5.3 queue by default, or from the
// random covering generator. Profiles are the Grid'5000 reference set.
//
// --fault-plan FILE switches from the discrete-event simulator to the
// LIVE runtime and injects the scripted faults (src/fault DSL): ION
// crashes, PFS dispatch errors, mapping-publish drops. The run prints
// the usual per-job table plus the fault/failover telemetry counters,
// so an operator can rehearse "what does losing ION k at t=0.5s do to
// this queue" before trying it on a production system.

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/related.hpp"
#include "fault/injector.hpp"
#include "jobs/live_executor.hpp"
#include "jobs/sim_executor.hpp"
#include "platform/profile.hpp"
#include "qos/drill.hpp"
#include "qos/tenant.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/queuegen.hpp"

namespace {

using namespace iofa;

/// `tok` as a whole number >= `min`; otherwise std::invalid_argument
/// naming `what` (main() turns it into a message and exit status 2).
template <typename T = int>
T whole(const std::string& what, std::string_view tok, T min = 0) {
  T v{};
  if (!parse_number(tok, v) || v < min) {
    throw std::invalid_argument(what + " wants a whole number >= " +
                                std::to_string(min) + ", got '" +
                                std::string(tok) + "'");
  }
  return v;
}

/// `tok` as a finite number >= 0, or > 0 when `positive`.
double real(const std::string& what, std::string_view tok,
            bool positive = false) {
  double v = 0.0;
  if (!parse_number(tok, v) || !std::isfinite(v) || v < 0.0 ||
      (positive && v == 0.0)) {
    throw std::invalid_argument(what + " wants a finite number " +
                                (positive ? "> 0" : ">= 0") + ", got '" +
                                std::string(tok) + "'");
  }
  return v;
}

std::shared_ptr<core::ArbitrationPolicy> make_policy(
    const std::string& name) {
  if (name == "static") return std::make_shared<core::StaticPolicy>();
  if (name == "size") return std::make_shared<core::SizePolicy>();
  if (name == "process") return std::make_shared<core::ProcessPolicy>();
  if (name == "one") return std::make_shared<core::OnePolicy>();
  if (name == "zero") return std::make_shared<core::ZeroPolicy>();
  if (name == "dfra") return std::make_shared<core::DfraPolicy>();
  if (name == "recruit") return std::make_shared<core::RecruitmentPolicy>();
  return std::make_shared<core::MckpPolicy>();
}

/// Overload-control flags forwarded into the live drill (PR 5). The
/// defaults leave every mechanism off so legacy drills replay
/// byte-identically.
struct OverloadFlags {
  int max_attempts = 4;
  double backoff_base = 1.0e-3;
  double backoff_cap = 20.0e-3;
  double request_timeout = 0.05;
  double admission_watermark = 0.0;  ///< > 0 enables admission control
  int breaker_threshold = 0;         ///< > 0 enables circuit breakers
  double fallback_mbps = 0.0;        ///< direct-PFS bandwidth cap
  bool check_accounting = false;     ///< assert the ledger identity
  /// --qos-tenant specs; non-empty enables the QoS subsystem for the
  /// live drill (tenants matched to jobs by app label).
  std::vector<qos::TenantSpec> tenants;
  /// --transport value ("inproc" / "tcp"); empty = kAuto
  /// (IOFA_TRANSPORT, defaulting to in-proc).
  std::string transport;
};

/// The admission-ledger identity (qos/enforcer.hpp) over the global
/// registry: for every tenant label, qos.tenant.submitted == admitted +
/// rejected + expired + direct_fallback + failed. An identity over zero
/// requests proves nothing, so a run in which no tenant submitted
/// anything fails the check too.
bool ledger_ok() {
  const auto snap = telemetry::Registry::global().snapshot();
  std::map<std::string, double> submitted, accounted;
  for (const auto& s : snap.samples) {
    if (s.name.rfind("qos.tenant.", 0) != 0) continue;
    std::string tenant;
    for (const auto& [k, v] : s.labels) {
      if (k == "tenant") tenant = v;
    }
    if (s.name == "qos.tenant.submitted") {
      submitted[tenant] += s.value;
    } else if (s.name == "qos.tenant.admitted" ||
               s.name == "qos.tenant.rejected" ||
               s.name == "qos.tenant.expired" ||
               s.name == "qos.tenant.direct_fallback" ||
               s.name == "qos.tenant.failed") {
      accounted[tenant] += s.value;
    }
  }
  bool ok = true;
  double total = 0.0;
  for (const auto& [tenant, sub] : submitted) {
    const double acc = accounted[tenant];
    std::cout << "tenant '" << tenant << "' accounting: submitted " << sub
              << " vs accounted " << acc << "\n";
    ok = ok && sub == acc;
    total += sub;
  }
  if (!ok) {
    std::cerr << "iofa_queue_sim: admission ledger identity violated "
                 "(see qos/enforcer.hpp)\n";
  } else if (total == 0.0) {
    std::cerr << "iofa_queue_sim: no tenant recorded a submission; the "
                 "ledger check proves nothing\n";
    ok = false;
  } else {
    std::cout << "ledger accounting ok\n";
  }
  return ok;
}

/// Parse one --qos-tenant spec:
///   name:class:reserved_mbps[:burst_mbps[:floor_mbps[:max_wait_ms]]]
/// where class is guaranteed | burst | best-effort.
qos::TenantSpec parse_tenant_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::stringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, ':')) parts.push_back(part);
  if (parts.size() < 3) {
    throw std::invalid_argument(
        "--qos-tenant wants name:class:reserved_mbps[:burst_mbps"
        "[:floor_mbps[:max_wait_ms]]], got '" + spec + "'");
  }
  qos::TenantSpec t;
  t.name = parts[0];
  if (parts[1] == "guaranteed") {
    t.klass = qos::PriorityClass::Guaranteed;
  } else if (parts[1] == "burst") {
    t.klass = qos::PriorityClass::Burst;
  } else if (parts[1] == "best-effort") {
    t.klass = qos::PriorityClass::BestEffort;
  } else {
    throw std::invalid_argument("--qos-tenant class '" + parts[1] +
                                "' is not guaranteed|burst|best-effort");
  }
  t.reserved_bandwidth = real("--qos-tenant reserved_mbps", parts[2]) * 1.0e6;
  if (parts.size() > 3) {
    t.burst = real("--qos-tenant burst_mbps", parts[3]) * 1.0e6;
  }
  if (parts.size() > 4) {
    t.min_bandwidth = real("--qos-tenant floor_mbps", parts[4]);
  }
  if (parts.size() > 5) {
    t.max_queue_wait = real("--qos-tenant max_wait_ms", parts[5]) * 1.0e-3;
  }
  return t;
}

/// The job queue named by --queue: paper | random:<seed>[:<njobs>].
std::vector<workload::AppSpec> make_queue(const std::string& spec) {
  if (spec == "paper") return workload::paper_queue();
  if (spec.rfind("random:", 0) != 0) {
    throw std::invalid_argument("--queue wants paper or random:<seed>"
                                "[:<njobs>], got '" + spec + "'");
  }
  const std::string_view rest = std::string_view(spec).substr(7);
  const auto colon = rest.find(':');
  Rng rng(whole<std::uint64_t>("--queue seed", rest.substr(0, colon)));
  return workload::random_covering_queue(
      rng, colon == std::string_view::npos
               ? 14
               : whole<std::size_t>("--queue njobs", rest.substr(colon + 1),
                                    1));
}

/// Run the canonical 3-tenant contention drill (qos/drill.hpp) and
/// report per-tenant outcomes from the qos.tenant.* counters. Exit 1
/// when the guaranteed tenant misses its SLO, 3 when --check-accounting
/// fails the ledger check.
int run_qos_drill(std::uint64_t seed, bool check_accounting) {
  qos::DrillConfig cfg;
  cfg.seed = seed;
  const auto r =
      qos::run_contention_drill(cfg, telemetry::Registry::global());

  Table table({"tenant", "class", "offered_MB/s", "delivered_MB/s",
               "admitted", "rejected", "borrowed_MB", "lent_MB",
               "slo_viol"});
  for (const auto& t : r.tenants) {
    table.add_row(
        {t.name, std::string(t.klass == qos::PriorityClass::Guaranteed
                                 ? "guaranteed"
                                 : "best-effort"),
         fmt(t.offered_mbps, 1), fmt(t.delivered_mbps, 1),
         std::to_string(t.admitted), std::to_string(t.rejected),
         fmt(static_cast<double>(t.borrowed_bytes) / 1.0e6, 1),
         fmt(static_cast<double>(t.lent_bytes) / 1.0e6, 1),
         std::to_string(t.slo_violations)});
  }
  table.print(std::cout);
  std::cout << "\nqos drill (seed " << seed << "): gold floor "
            << fmt(cfg.gold_floor_mbps, 0) << " MB/s, delivered "
            << fmt(r.gold().delivered_mbps, 1) << " MB/s under "
            << fmt(cfg.best_effort_multiplier, 0)
            << "x best-effort load -> SLO "
            << (r.gold_slo_met ? "met" : "MISSED") << "\n";

  if (check_accounting && !ledger_ok()) return 3;
  return r.gold_slo_met ? 0 : 1;
}

/// Rehearse `plan` against the live runtime (drills use real daemons:
/// crashes, retries and republishes have to actually happen).
int run_fault_drill(const std::string& plan_path,
                    const std::vector<workload::AppSpec>& queue,
                    const std::string& policy_name,
                    const jobs::SimExecutorOptions& sim_opts,
                    int workers_per_ion, const OverloadFlags& overload) {
  std::ifstream in(plan_path);
  if (!in) {
    std::cerr << "iofa_queue_sim: cannot read fault plan '" << plan_path
              << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto plan = fault::FaultPlan::parse(text.str(), &error);
  if (!plan) {
    std::cerr << "iofa_queue_sim: bad fault plan '" << plan_path
              << "': " << error << "\n";
    return 2;
  }

  fault::WallFaultClock clock;
  fault::FaultInjector injector(*plan, &clock,
                                &telemetry::Registry::global());

  jobs::LiveExecutorOptions opts;
  opts.compute_nodes = sim_opts.compute_nodes;
  opts.pool = sim_opts.pool;
  opts.static_ratio = sim_opts.static_ratio;
  opts.reallocate_running = sim_opts.reallocate_running;
  opts.threads_per_job = 2;
  opts.poll_period = 0.002;
  opts.replay.volume_scale = 1.0 / 8192.0;
  opts.replay.min_phase_bytes = 4 * MiB;
  opts.fault_clock = &clock;
  opts.health_period = 0.002;
  opts.request_timeout = overload.request_timeout;
  opts.workers_per_ion = workers_per_ion;
  opts.max_attempts = overload.max_attempts;
  opts.client_backoff.base = overload.backoff_base;
  opts.client_backoff.cap = overload.backoff_cap;
  if (overload.admission_watermark > 0.0) {
    opts.admission.enabled = true;
    opts.admission.queue_high_watermark = overload.admission_watermark;
  }
  if (overload.breaker_threshold > 0) {
    opts.breaker.enabled = true;
    opts.breaker.failure_threshold = overload.breaker_threshold;
  }
  opts.fallback_bandwidth = overload.fallback_mbps * MiB;
  if (!overload.tenants.empty()) {
    opts.qos.enabled = true;
    opts.qos.tenants = overload.tenants;
  }
  if (!overload.transport.empty()) {
    const auto kind = rpc::parse_transport(overload.transport);
    if (!kind) {
      std::cerr << "iofa_queue_sim: unknown --transport '"
                << overload.transport << "' (want inproc or tcp)\n";
      return 2;
    }
    opts.transport = *kind;
  }

  try {
    // Resolve IOFA_TRANSPORT here so an unknown name is a usage error,
    // not an exception out of the service constructor.
    opts.transport = rpc::resolve_transport(opts.transport);
    jobs::validate_live_options(opts);
  } catch (const std::invalid_argument& bad) {
    std::cerr << "iofa_queue_sim: " << bad.what() << "\n";
    return 2;
  }

  fwd::ForwardingService service(
      jobs::live_service_config(opts, &injector));

  const auto result =
      jobs::run_queue_live(queue, platform::g5k_reference_profiles(),
                           make_policy(policy_name), service, opts);

  Table table({"job", "app", "started_s", "finished_s", "MB/s"});
  for (const auto& job : result.jobs) {
    table.add_row({std::to_string(job.id), job.label, fmt(job.started, 2),
                   fmt(job.finished, 2),
                   fmt(job.replay.bandwidth(), 1)});
  }
  table.print(std::cout);
  std::cout << "\npolicy " << make_policy(policy_name)->name()
            << " under fault plan " << plan_path << " (seed "
            << plan->seed << "): aggregate "
            << fmt(result.aggregate_bw(), 1) << " MB/s, makespan "
            << fmt(result.makespan, 2) << " s over "
            << result.jobs.size() << " jobs\n\nfault telemetry:\n";

  const auto snap = telemetry::Registry::global().snapshot();
  for (const auto& s : snap.samples) {
    const bool fault_metric =
        s.name.rfind("fault.", 0) == 0 || s.name.rfind("fwd.retries", 0) == 0 ||
        s.name.rfind("fwd.failovers", 0) == 0 ||
        s.name.rfind("fwd.ion.flush_abandoned", 0) == 0 ||
        s.name.rfind("fwd.overload.", 0) == 0 ||
        s.name == "qos.tenant.submitted" || s.name == "qos.tenant.admitted" ||
        s.name == "qos.tenant.rejected" || s.name == "qos.tenant.expired" ||
        s.name == "qos.tenant.direct_fallback" ||
        s.name == "qos.tenant.failed" ||
        s.name.rfind("arbiter.resolves_on_failure", 0) == 0;
    if (!fault_metric || s.value == 0.0) continue;
    std::cout << "  " << s.name;
    for (const auto& [k, v] : s.labels) {
      std::cout << " " << k << "=" << v;
    }
    std::cout << " = " << s.value << "\n";
  }

  if (overload.check_accounting && !ledger_ok()) return 3;
  return 0;
}

int run(int argc, char** argv) {
  std::string policy_name = "mckp";
  std::string queue_spec = "paper";
  std::string fault_plan;
  bool qos_drill = false;
  std::uint64_t qos_seed = 1;
  int workers_per_ion = 1;
  OverloadFlags overload;
  jobs::SimExecutorOptions opts;
  opts.compute_nodes = 96;
  opts.pool = 12;
  opts.static_ratio = 32.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--policy" && i + 1 < argc) {
      policy_name = argv[++i];
    } else if (arg == "--nodes" && i + 1 < argc) {
      opts.compute_nodes = whole(arg, argv[++i], 1);
    } else if (arg == "--pool" && i + 1 < argc) {
      opts.pool = whole(arg, argv[++i]);
    } else if (arg == "--ratio" && i + 1 < argc) {
      opts.static_ratio = real(arg, argv[++i], /*positive=*/true);
    } else if (arg == "--delay" && i + 1 < argc) {
      opts.remap_delay = real(arg, argv[++i]);
    } else if (arg == "--queue" && i + 1 < argc) {
      queue_spec = argv[++i];
    } else if (arg == "--fault-plan" && i + 1 < argc) {
      fault_plan = argv[++i];
    } else if (arg == "--workers-per-ion" && i + 1 < argc) {
      workers_per_ion = whole(arg, argv[++i], 1);
    } else if (arg == "--max-attempts" && i + 1 < argc) {
      overload.max_attempts = whole(arg, argv[++i], 1);
    } else if (arg == "--backoff-base" && i + 1 < argc) {
      overload.backoff_base = real(arg, argv[++i], /*positive=*/true);
    } else if (arg == "--backoff-cap" && i + 1 < argc) {
      overload.backoff_cap = real(arg, argv[++i]);
    } else if (arg == "--request-timeout" && i + 1 < argc) {
      overload.request_timeout = real(arg, argv[++i]);
    } else if (arg == "--admission-watermark" && i + 1 < argc) {
      overload.admission_watermark = real(arg, argv[++i]);
    } else if (arg == "--breaker-threshold" && i + 1 < argc) {
      overload.breaker_threshold = whole(arg, argv[++i]);
    } else if (arg == "--fallback-mbps" && i + 1 < argc) {
      overload.fallback_mbps = real(arg, argv[++i]);
    } else if (arg == "--transport" && i + 1 < argc) {
      overload.transport = argv[++i];
    } else if (arg == "--check-accounting") {
      overload.check_accounting = true;
    } else if (arg == "--qos-tenant" && i + 1 < argc) {
      overload.tenants.push_back(parse_tenant_spec(argv[++i]));
    } else if (arg == "--qos-drill") {
      qos_drill = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      qos_seed = whole<std::uint64_t>(arg, argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: iofa_queue_sim [--policy P] [--nodes N] "
                   "[--pool K] [--ratio R] [--delay S] "
                   "[--queue paper|random:<seed>:<njobs>] "
                   "[--fault-plan FILE] [--workers-per-ion W] "
                   "[overload flags]\n"
                   "  --fault-plan FILE  rehearse the queue on the LIVE "
                   "runtime under the scripted faults\n"
                   "  --workers-per-ion W  dispatch shards per ION "
                   "daemon in the live runtime (default 1)\n"
                   "overload flags (live drills only):\n"
                   "  --max-attempts N         client submission attempts "
                   "per sub-request (default 4)\n"
                   "  --backoff-base S         client retry backoff base "
                   "(default 1e-3)\n"
                   "  --backoff-cap S          client retry backoff "
                   "ceiling (default 20e-3)\n"
                   "  --request-timeout S      per-sub-request timeout "
                   "(default 0.05; 0 = wait forever)\n"
                   "  --admission-watermark F  enable ION admission "
                   "control at this queue fraction (0,1]\n"
                   "  --breaker-threshold N    enable per-ION circuit "
                   "breakers tripping after N failures\n"
                   "  --fallback-mbps M        cap the direct-PFS "
                   "degradation path at M MiB/s (0 = uncapped)\n"
                   "  --transport T            carry the client<->ION and "
                   "mapping links over T = inproc|tcp\n"
                   "                           (default: IOFA_TRANSPORT, "
                   "else inproc; needs --fault-plan)\n"
                   "  --check-accounting       exit 3 unless the admission "
                   "ledger identity (qos.tenant.*,\n"
                   "                           one row per tenant, "
                   "'default' with QoS off) holds and some\n"
                   "                           tenant submitted work; "
                   "needs --fault-plan or --qos-drill\n"
                   "qos flags:\n"
                   "  --qos-tenant SPEC        add a tenant to the live "
                   "drill; SPEC = name:class:reserved_mbps\n"
                   "                           [:burst_mbps[:floor_mbps"
                   "[:max_wait_ms]]], class = guaranteed|\n"
                   "                           burst|best-effort; jobs "
                   "match tenants by app label; requires\n"
                   "                           --admission-watermark\n"
                   "  --qos-drill              run the canonical 3-tenant "
                   "contention drill (1 guaranteed vs 2\n"
                   "                           best-effort at 10x load) "
                   "and exit 1 unless the SLO held\n"
                   "  --seed N                 seed for --qos-drill "
                   "(default 1)\n";
      return 0;
    }
  }
  opts.reallocate_running = policy_name != "static";

  // The discrete-event simulator has no links and no ledger: a flag it
  // would silently ignore is a usage error, not a passing check.
  if (overload.check_accounting && fault_plan.empty() && !qos_drill) {
    std::cerr << "iofa_queue_sim: --check-accounting needs --fault-plan "
                 "or --qos-drill\n";
    return 2;
  }
  if (!overload.transport.empty() && fault_plan.empty()) {
    std::cerr << "iofa_queue_sim: --transport needs --fault-plan\n";
    return 2;
  }

  if (qos_drill) {
    return run_qos_drill(qos_seed, overload.check_accounting);
  }

  const std::vector<workload::AppSpec> queue = make_queue(queue_spec);

  if (!fault_plan.empty()) {
    return run_fault_drill(fault_plan, queue, policy_name, opts,
                           workers_per_ion, overload);
  }

  const auto profiles = platform::g5k_reference_profiles();
  const auto result = jobs::run_queue_simulation(
      queue, profiles, make_policy(policy_name), opts);

  Table table({"job", "app", "started_s", "finished_s", "MB/s",
               "ion_time_share"});
  for (const auto& job : result.jobs) {
    std::string share;
    for (const auto& [ions, frac] : job.ion_time_share) {
      share += std::to_string(ions) + ":" + fmt(frac * 100, 0) + "% ";
    }
    table.add_row({std::to_string(job.id), job.label, fmt(job.started, 1),
                   fmt(job.finished, 1), fmt(job.achieved_bw, 1), share});
  }
  table.print(std::cout);
  std::cout << "\npolicy " << make_policy(policy_name)->name()
            << ": aggregate " << fmt(result.aggregate_bw(), 1)
            << " MB/s (Equation 2), makespan " << fmt(result.makespan, 1)
            << " s over " << result.jobs.size() << " jobs\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad outside input is a message and exit status 2, never a crash.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& bad) {
    std::cerr << "iofa_queue_sim: " << bad.what() << "\n";
    return 2;
  }
}
