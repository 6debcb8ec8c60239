#include "qos/enforcer.hpp"

#include <algorithm>
#include <cmath>

namespace iofa::qos {

namespace {

std::uint64_t to_counter(double x) {
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(x));
}

/// fetch_add for pre-C++20-atomic-double toolchains: CAS loop.
void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

}  // namespace

QosMetrics::QosMetrics(const TenantRegistry& registry,
                       telemetry::Registry& reg) {
  tenants_.resize(registry.size());
  for (TenantId t = 0; t < registry.size(); ++t) {
    const telemetry::Labels labels{{"tenant", registry.spec(t).name}};
    TenantCounters& c = tenants_[t];
    c.submitted = &reg.counter("qos.tenant.submitted", labels);
    c.admitted = &reg.counter("qos.tenant.admitted", labels);
    c.rejected = &reg.counter("qos.tenant.rejected", labels);
    c.expired = &reg.counter("qos.tenant.expired", labels);
    c.direct_fallback = &reg.counter("qos.tenant.direct_fallback", labels);
    c.failed = &reg.counter("qos.tenant.failed", labels);
    c.submitted_bytes = &reg.counter("qos.tenant.submitted_bytes", labels);
    c.admitted_bytes = &reg.counter("qos.tenant.admitted_bytes", labels);
    c.reserved_bytes = &reg.counter("qos.tenant.reserved_bytes", labels);
    c.reclaimed_bytes = &reg.counter("qos.tenant.reclaimed_bytes", labels);
    c.borrowed_bytes = &reg.counter("qos.tenant.borrowed_bytes", labels);
    c.lent_bytes = &reg.counter("qos.tenant.lent_bytes", labels);
    c.slo_violations = &reg.counter("qos.tenant.slo_violations", labels);
    c.queue_wait_us =
        &reg.histogram("qos.tenant.queue_wait_us",
                       telemetry::BucketSpec::latency_us(), labels);
  }
}

QosMetrics::QosMetrics(telemetry::Registry& reg)
    : QosMetrics(TenantRegistry(QosOptions{}, 1.0), reg) {}

QosEnforcer::QosEnforcer(const TenantRegistry& registry, QosMetrics& metrics)
    : registry_(registry), metrics_(metrics), htb_(registry) {
  lent_published_.resize(registry.size(), 0.0);
}

void QosEnforcer::record_grant(TenantId t,
                               const HierarchicalTokenBucket::Grant& g) {
  const TenantCounters& c = metrics_.tenant(t);
  c.reserved_bytes->add(to_counter(g.reserved));
  c.reclaimed_bytes->add(to_counter(g.reclaimed));
  c.borrowed_bytes->add(to_counter(g.borrowed));
  atomic_add(granted_total_, g.granted());
  atomic_add(granted_borrowed_, g.borrowed);
}

bool QosEnforcer::admit(TenantId t, Bytes bytes, bool saturated,
                        Seconds now) {
  if (t >= registry_.size()) t = kDefaultTenant;
  const double n = static_cast<double>(bytes);
  if (!saturated) {
    // Below the watermark nobody is refused; tokens are still charged
    // so the reserved/borrowed ledger reflects who actually consumed
    // the capacity (a shortfall here just means demand briefly outran
    // the token model, which admission is not yet pushing back on).
    record_grant(t, htb_.acquire(t, n, now, /*require_full=*/false));
    return true;
  }
  switch (registry_.spec(t).klass) {
    case PriorityClass::BestEffort:
      // Rejected first: no reservation backs it, so under saturation it
      // is exactly the load shedding exists to shed.
      return false;
    case PriorityClass::Burst: {
      const auto g = htb_.acquire(t, n, now, /*require_full=*/true);
      if (g.ok) record_grant(t, g);
      return g.ok;
    }
    case PriorityClass::Guaranteed: {
      auto g = htb_.acquire(t, n, now, /*require_full=*/true);
      if (!g.ok && htb_.reserve_level(t, now) > 0.0) {
        // Exempt up to its reservation: while the tenant's own tokens
        // last it cannot be refused, even when the pool cannot cover
        // the whole request (the shortfall is forgiven, not borrowed).
        g = htb_.acquire(t, n, now, /*require_full=*/false);
      }
      if (g.ok) record_grant(t, g);
      return g.ok;
    }
  }
  return true;
}

void QosEnforcer::observe_wait(TenantId t, double wait_us) {
  metrics_.tenant(t).queue_wait_us->observe(wait_us);
}

double QosEnforcer::sheddable_fraction() const {
  const double total = granted_total_.load(std::memory_order_relaxed);
  if (total <= 0.0) return 0.0;
  const double borrowed = granted_borrowed_.load(std::memory_order_relaxed);
  return std::clamp(borrowed / total, 0.0, 1.0);
}

void QosEnforcer::publish_lending() {
  for (TenantId t = 0; t < lent_published_.size(); ++t) {
    const double now_lent = htb_.lent(t);
    const double delta = now_lent - lent_published_[t];
    if (delta > 0.0) {
      metrics_.tenant(t).lent_bytes->add(to_counter(delta));
      lent_published_[t] = now_lent;
    }
  }
}

QosRuntime::QosRuntime(QosOptions options, double ion_capacity, int ion_count,
                       telemetry::Registry& reg)
    : registry_(std::move(options), ion_capacity), metrics_(registry_, reg) {
  enforcers_.reserve(static_cast<std::size_t>(std::max(0, ion_count)));
  for (int i = 0; i < ion_count; ++i) {
    enforcers_.push_back(std::make_unique<QosEnforcer>(registry_, metrics_));
  }
}

void QosRuntime::slo_beat(Seconds now) {
  MutexLock lk(beat_mu_);
  const std::size_t n = registry_.size();
  if (!beat_.primed) {
    beat_.submitted_bytes.assign(n, 0);
    beat_.admitted_bytes.assign(n, 0);
  }
  std::vector<std::uint64_t> submitted(n), admitted(n);
  for (TenantId t = 0; t < n; ++t) {
    submitted[t] = metrics_.tenant(t).submitted_bytes->value();
    admitted[t] = metrics_.tenant(t).admitted_bytes->value();
  }
  const Seconds dt = now - beat_.at;
  if (beat_.primed && dt > 0.0) {
    for (TenantId t = 0; t < n; ++t) {
      const TenantSpec& spec = registry_.spec(t);
      bool violated = false;
      if (spec.min_bandwidth > 0.0) {
        const MBps offered =
            static_cast<double>(submitted[t] - beat_.submitted_bytes[t]) /
            1.0e6 / dt;
        const MBps delivered =
            static_cast<double>(admitted[t] - beat_.admitted_bytes[t]) /
            1.0e6 / dt;
        // An idle tenant cannot violate its own floor: the guarantee is
        // conditional on the tenant actually offering that much load.
        if (offered >= spec.min_bandwidth && delivered < spec.min_bandwidth) {
          violated = true;
        }
      }
      if (spec.max_queue_wait > 0.0) {
        // Cumulative p99 of the tenant's ingest wait across all IONs.
        telemetry::HistogramSnapshot snap;
        const telemetry::Histogram& h = *metrics_.tenant(t).queue_wait_us;
        snap.spec = h.spec();
        snap.count = h.count();
        snap.sum = h.sum();
        snap.buckets.resize(snap.spec.count);
        for (std::size_t b = 0; b < snap.spec.count; ++b) {
          snap.buckets[b] = h.bucket_count(b);
        }
        if (snap.count > 0 &&
            snap.quantile(0.99) > spec.max_queue_wait * 1.0e6) {
          violated = true;
        }
      }
      if (violated) metrics_.tenant(t).slo_violations->add();
    }
  }
  beat_.at = now;
  beat_.submitted_bytes = std::move(submitted);
  beat_.admitted_bytes = std::move(admitted);
  beat_.primed = true;
  for (auto& e : enforcers_) e->publish_lending();
}

}  // namespace iofa::qos
