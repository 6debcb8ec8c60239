#include "qos/drill.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "qos/enforcer.hpp"

namespace iofa::qos {

namespace {

struct DrillTenant {
  TenantId id = 0;
  double offered_rate = 0.0;  ///< bytes/s while active
  Seconds idle_from = 0.0;
  Seconds idle_until = 0.0;
  Rng rng{0};
  double carry = 0.0;  ///< offered bytes not yet shaped into a request
  Bytes offered_total = 0;

  bool active_at(Seconds t) const {
    return !(t >= idle_from && t < idle_until);
  }
};

}  // namespace

DrillResult run_contention_drill(const DrillConfig& config,
                                 telemetry::Registry& reg) {
  QosOptions options;
  options.enabled = true;
  TenantSpec gold;
  gold.name = "gold";
  gold.klass = PriorityClass::Guaranteed;
  gold.reserved_bandwidth = config.gold_reserved;
  gold.min_bandwidth = config.gold_floor_mbps;
  options.tenants.push_back(gold);
  for (const char* name : {"be1", "be2"}) {
    TenantSpec be;
    be.name = name;
    be.klass = PriorityClass::BestEffort;
    options.tenants.push_back(be);
  }

  QosRuntime runtime(options, config.capacity, /*ion_count=*/1, reg);
  QosEnforcer& enforcer = *runtime.enforcer(0);

  const double be_rate =
      config.best_effort_multiplier * config.capacity / 2.0;
  std::vector<DrillTenant> tenants(3);
  tenants[0].id = runtime.tenant_of("gold");
  tenants[0].offered_rate = config.gold_offered;
  tenants[0].idle_from = config.gold_idle_from;
  tenants[0].idle_until = config.gold_idle_until;
  tenants[1].id = runtime.tenant_of("be1");
  tenants[1].offered_rate = be_rate;
  tenants[2].id = runtime.tenant_of("be2");
  tenants[2].offered_rate = be_rate;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].rng = Rng(SplitMix64(config.seed ^ (0x9E3779B97F4A7C15ULL *
                                                   (i + 1)))
                             .next());
  }

  // Saturation model: admitted bytes pile onto a backlog drained at ION
  // capacity; a backlog at the watermark is saturated, matching how the
  // real SaturationTracker normalises "1.0 = at the high watermark".
  const double watermark = config.capacity * config.watermark_horizon;
  double backlog = 0.0;
  Seconds next_beat = config.beat_period;

  const std::size_t ticks =
      static_cast<std::size_t>(config.duration / config.tick);
  for (std::size_t k = 0; k < ticks; ++k) {
    const Seconds t = static_cast<double>(k) * config.tick;
    const bool saturated = backlog >= watermark;
    for (auto& tn : tenants) {
      if (!tn.active_at(t)) continue;
      tn.carry += tn.offered_rate * config.tick;
      // Shape the tick's offered bytes into requests of 64..256 KiB -
      // forwarding-sized accesses, all sizes from the seeded stream.
      while (tn.carry >= 64.0 * 1024.0) {
        const Bytes size = tn.rng.uniform_u64(64 * 1024, 256 * 1024);
        if (static_cast<double>(size) > tn.carry) break;
        tn.carry -= static_cast<double>(size);
        tn.offered_total += size;
        const TenantCounters& c = runtime.metrics().tenant(tn.id);
        c.on_submitted(size);
        if (enforcer.admit(tn.id, size, saturated, t)) {
          c.on_admitted(size);
          backlog += static_cast<double>(size);
        } else {
          c.on_rejected();
        }
      }
    }
    backlog = std::max(0.0, backlog - config.capacity * config.tick);
    if (t >= next_beat) {
      runtime.slo_beat(t);
      next_beat += config.beat_period;
    }
  }
  runtime.slo_beat(config.duration);

  DrillResult result;
  result.config = config;
  result.accounting_ok = true;
  for (const auto& tn : tenants) {
    const TenantSpec& spec = runtime.registry().spec(tn.id);
    const TenantCounters& c = runtime.metrics().tenant(tn.id);
    DrillTenantResult r;
    r.name = spec.name;
    r.klass = spec.klass;
    r.active_seconds =
        config.duration - std::max(0.0, std::min(config.duration,
                                                 tn.idle_until) -
                                            std::min(config.duration,
                                                     tn.idle_from));
    r.offered_bytes = tn.offered_total;
    r.submitted = c.submitted->value();
    r.admitted = c.admitted->value();
    r.rejected = c.rejected->value();
    r.submitted_bytes = c.submitted_bytes->value();
    r.admitted_bytes = c.admitted_bytes->value();
    r.reserved_bytes = c.reserved_bytes->value();
    r.reclaimed_bytes = c.reclaimed_bytes->value();
    r.borrowed_bytes = c.borrowed_bytes->value();
    r.lent_bytes = c.lent_bytes->value();
    r.slo_violations = c.slo_violations->value();
    if (r.active_seconds > 0.0) {
      r.delivered_mbps = static_cast<double>(r.admitted_bytes) / 1.0e6 /
                         r.active_seconds;
      r.offered_mbps = static_cast<double>(r.offered_bytes) / 1.0e6 /
                       r.active_seconds;
    }
    result.accounting_ok = result.accounting_ok && r.accounting_ok();
    result.tenants.push_back(std::move(r));
  }
  result.gold_slo_met =
      result.tenants[0].delivered_mbps >= config.gold_floor_mbps &&
      result.tenants[0].slo_violations == 0;
  return result;
}

std::string qos_counter_dump(const telemetry::Registry& reg) {
  const auto snap = reg.snapshot();
  std::ostringstream out;
  for (const auto& s : snap.samples) {
    if (s.kind != telemetry::MetricKind::Counter) continue;
    if (s.name.rfind("qos.", 0) != 0) continue;
    out << s.name << "{" << telemetry::labels_to_string(s.labels) << "} "
        << static_cast<std::uint64_t>(std::llround(s.value)) << "\n";
  }
  return out.str();
}

}  // namespace iofa::qos
