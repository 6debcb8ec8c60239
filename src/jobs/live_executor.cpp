#include "jobs/live_executor.hpp"
#include "common/clock.hpp"

#include <stdexcept>
#include <chrono>
#include <optional>
#include <thread>

#include "common/mutex.hpp"

#include "common/log.hpp"
#include "telemetry/telemetry.hpp"

namespace iofa::jobs {

MBps LiveRunResult::aggregate_bw() const {
  MBps total = 0.0;
  for (const auto& job : jobs) total += job.replay.bandwidth();
  return total;
}

namespace {

/// Curve for arbitration: optionally strip the direct-access option.
platform::BandwidthCurve arbitration_curve(
    const platform::BandwidthCurve& curve, bool forbid_direct) {
  if (!forbid_direct) return curve;
  std::vector<std::pair<int, MBps>> pts;
  for (int opt : curve.options()) {
    if (opt == 0) continue;
    pts.emplace_back(opt, curve.at(opt));
  }
  if (pts.empty()) return curve;
  return platform::BandwidthCurve(std::move(pts));
}

}  // namespace

fwd::ServiceConfig live_service_config(const LiveExecutorOptions& options,
                                       fault::FaultInjector* injector) {
  fwd::ServiceConfig cfg;
  cfg.ion_count = options.pool;
  cfg.pfs.write_bandwidth = 900.0e6;
  cfg.pfs.read_bandwidth = 1400.0e6;
  cfg.pfs.op_overhead = 128 * KiB;
  cfg.pfs.contention_coeff = 0.02;
  cfg.pfs.store_data = false;
  cfg.ion.ingest_bandwidth = 650.0e6;
  cfg.ion.op_overhead = 32 * KiB;
  cfg.ion.workers = std::max(1, options.workers_per_ion);
  cfg.ion.admission = options.admission;
  cfg.fallback_bandwidth = options.fallback_bandwidth;
  cfg.qos = options.qos;
  cfg.injector = injector;
  cfg.transport = options.transport;
  cfg.rpc = options.rpc;
  return cfg;
}

void validate_live_options(const LiveExecutorOptions& options) {
  auto reject = [](const std::string& why) {
    throw std::invalid_argument("live executor options: " + why);
  };
  if (options.max_attempts < 1) {
    reject("max_attempts must be >= 1 (got " +
           std::to_string(options.max_attempts) + ")");
  }
  if (!(options.request_timeout >= 0.0)) {
    reject("request_timeout must be >= 0");
  }
  if (options.client_backoff.base <= 0.0 ||
      options.client_backoff.cap < options.client_backoff.base ||
      options.client_backoff.multiplier < 1.0) {
    reject("client_backoff wants base > 0, cap >= base, multiplier >= 1");
  }
  if (options.breaker.enabled) {
    if (!(options.request_timeout > 0.0)) {
      // A breaker fed only by submission outcomes never sees a slow
      // (as opposed to refusing) ION fail; without a timeout it would
      // sit closed while every client blocks forever.
      reject("breaker requires request_timeout > 0");
    }
    if (options.breaker.failure_threshold < 1) {
      reject("breaker failure_threshold must be >= 1");
    }
    if (options.breaker.open_base <= 0.0 ||
        options.breaker.open_cap < options.breaker.open_base) {
      reject("breaker open window wants base > 0 and cap >= base");
    }
  }
  if (options.admission.enabled) {
    if (options.admission.queue_high_watermark <= 0.0 ||
        options.admission.queue_high_watermark > 1.0) {
      reject("admission queue_high_watermark must be in (0, 1]");
    }
  }
  if (options.fallback_bandwidth < 0.0) {
    reject("fallback_bandwidth must be >= 0");
  }
  if (options.qos.enabled && !options.admission.enabled) {
    // Class-aware admission piggybacks on the saturation tracker; with
    // admission off there is no watermark signal and every class would
    // behave identically - a silently inert tenant table.
    reject("qos requires admission.enabled");
  }
  qos::validate_qos_options(options.qos);
  rpc::validate_rpc_options(options.rpc);
}

LiveRunResult run_queue_live(const std::vector<workload::AppSpec>& queue,
                             const platform::ProfileDB& profiles,
                             std::shared_ptr<core::ArbitrationPolicy> policy,
                             fwd::ForwardingService& service,
                             const LiveExecutorOptions& options) {
  validate_live_options(options);
  for (const auto& spec : queue) {
    if (spec.compute_nodes > options.compute_nodes) {
      throw std::invalid_argument(
          "job " + spec.label + " needs " +
          std::to_string(spec.compute_nodes) +
          " nodes but the cluster has " +
          std::to_string(options.compute_nodes));
    }
  }

  LiveRunResult result;
  Mutex mu;
  CondVar cv;
  int free_nodes = options.compute_nodes;
  std::size_t completed = 0;

  core::ArbiterOptions arbiter_options{options.pool, options.static_ratio,
                                       options.reallocate_running};
  core::Arbiter arbiter(std::move(policy), arbiter_options);

  if (options.fault_clock) options.fault_clock->arm();
  std::optional<fwd::HealthMonitor> health;
  if (options.health_period > 0.0) {
    health.emplace(service, arbiter,
                   fwd::HealthMonitor::Options{options.health_period, &mu});
    health->start();
  }

  const auto t_begin = iofa::monotonic_now();
  auto now = [&] {
    return std::chrono::duration<double>(iofa::monotonic_now() -
                                         t_begin)
        .count();
  };

  // One thread per job for the run's lifetime, joined below; a shared
  // pool would serialise jobs that must overlap to contend for IONs.
  std::vector<std::thread> job_threads;  // iofa-lint: allow(raw-thread)
  job_threads.reserve(queue.size());

  {
    UniqueLock lk(mu);
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const auto& spec = queue[qi];
      while (free_nodes < spec.compute_nodes) cv.wait(lk);
      free_nodes -= spec.compute_nodes;

      const core::JobId id = static_cast<core::JobId>(qi + 1);
      arbiter.job_started(
          id, core::AppEntry{spec.label, spec.compute_nodes, spec.processes,
                             arbitration_curve(profiles.at(spec.label),
                                               options.forbid_direct)});
      service.apply_mapping(arbiter.mapping());
      log_info("job ", id, " (", spec.label, ") started; mapping epoch ",
               arbiter.mapping().epoch);

      job_threads.emplace_back([&, id, qi] {
        const auto& jspec = queue[qi];
        auto& tracer = telemetry::Tracer::global();
        if (tracer.enabled()) {
          tracer.set_thread_name("job" + std::to_string(id) + "." +
                                 jspec.label);
        }
        fwd::ClientConfig cc;
        cc.job = id;
        cc.app_label = jspec.label;
        cc.stream_weight =
            static_cast<double>(jspec.processes) /
            static_cast<double>(std::max(1, options.threads_per_job));
        cc.poll_period = options.poll_period;
        cc.request_timeout = options.request_timeout;
        cc.max_attempts = options.max_attempts;
        cc.backoff = options.client_backoff;
        cc.breaker = options.breaker;
        cc.retry_seed = id;  // per-job jitter streams
        if (auto* qos = service.qos()) {
          cc.tenant = qos->tenant_of(jspec.label);
        }
        fwd::Client client(cc, service);

        fwd::ReplayOptions ro = options.replay;
        ro.threads = options.threads_per_job;
        const Seconds started = now();
        auto rr = [&] {
          telemetry::ScopedSpan span("job", "jobs.live", "job",
                                     static_cast<std::int64_t>(id));
          return replay_app(client, jspec, ro);
        }();
        const Seconds finished = now();

        // Per-job achieved bandwidth (Equation 2 numerator term).
        telemetry::Registry::global()
            .gauge("jobs.live.bandwidth_mbps",
                   {{"job", std::to_string(id)}, {"app", jspec.label}})
            .set(rr.bandwidth());
        telemetry::Registry::global()
            .counter("jobs.live.jobs_completed")
            .add();

        MutexLock jlk(mu);
        LiveJobResult jr;
        jr.id = id;
        jr.label = jspec.label;
        jr.replay = std::move(rr);
        jr.started = started;
        jr.finished = finished;
        result.jobs.push_back(std::move(jr));
        free_nodes += jspec.compute_nodes;
        ++completed;
        arbiter.job_finished(id);
        service.apply_mapping(arbiter.mapping());
        cv.notify_all();
      });
    }
    while (completed != queue.size()) cv.wait(lk);
  }

  for (auto& t : job_threads) t.join();
  if (health) health->stop();
  service.drain();
  result.makespan = now();
  return result;
}

}  // namespace iofa::jobs
