#include "qos/tenant.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace iofa::qos {

namespace {

/// Dequeue weights of the three classes (TenantRegistry::class_weight).
constexpr double kWeightGuaranteed = 100.0;
constexpr double kWeightBurst = 10.0;
constexpr double kWeightBestEffort = 1.0;

}  // namespace

std::string to_string(PriorityClass c) {
  switch (c) {
    case PriorityClass::Guaranteed: return "guaranteed";
    case PriorityClass::Burst: return "burst";
    case PriorityClass::BestEffort: return "best-effort";
  }
  return "?";
}

void validate_qos_options(const QosOptions& options) {
  auto reject = [](const std::string& why) {
    throw std::invalid_argument("qos options: " + why);
  };
  if (!options.enabled) return;
  if (options.tenants.empty()) {
    reject("enabled with an empty tenant table");
  }
  if (!(options.pool_horizon > 0.0) || !std::isfinite(options.pool_horizon)) {
    reject("pool_horizon must be positive and finite");
  }
  std::unordered_set<std::string> names;
  names.insert("default");  // the implicit tenant 0
  for (const auto& t : options.tenants) {
    if (t.name.empty()) reject("tenant with an empty name");
    if (!names.insert(t.name).second) {
      reject("duplicate tenant name '" + t.name + "'");
    }
    if (t.reserved_bandwidth < 0.0 || !std::isfinite(t.reserved_bandwidth)) {
      reject("tenant '" + t.name + "': reserved_bandwidth must be >= 0");
    }
    if (t.burst < 0.0 || !std::isfinite(t.burst)) {
      reject("tenant '" + t.name + "': burst must be >= 0");
    }
    if (t.min_bandwidth < 0.0 || t.max_queue_wait < 0.0) {
      reject("tenant '" + t.name + "': SLOs must be >= 0");
    }
    switch (t.klass) {
      case PriorityClass::Guaranteed:
        if (t.reserved_bandwidth <= 0.0) {
          reject("guaranteed tenant '" + t.name +
                 "' needs a reservation (a guarantee without tokens is "
                 "a wish)");
        }
        break;
      case PriorityClass::Burst:
        break;
      case PriorityClass::BestEffort:
        if (t.reserved_bandwidth > 0.0) {
          reject("best-effort tenant '" + t.name +
                 "' must not hold a reservation; use the burst class");
        }
        if (t.min_bandwidth > 0.0) {
          reject("best-effort tenant '" + t.name +
                 "' cannot carry a bandwidth floor SLO (nothing backs "
                 "it)");
        }
        break;
    }
  }
}

TenantRegistry::TenantRegistry(QosOptions options, double root_capacity)
    : options_(std::move(options)), root_capacity_(root_capacity) {
  validate_qos_options(options_);
  if (!(root_capacity > 0.0) || !std::isfinite(root_capacity)) {
    throw std::invalid_argument(
        "qos options: root capacity must be positive and finite");
  }
  TenantSpec def;
  def.name = "default";
  def.klass = PriorityClass::BestEffort;
  specs_.push_back(std::move(def));
  double reserved_sum = 0.0;
  for (const auto& t : options_.tenants) {
    reserved_sum += t.reserved_bandwidth;
    specs_.push_back(t);
  }
  if (reserved_sum > root_capacity) {
    throw std::invalid_argument(
        "qos options: summed reservations (" + std::to_string(reserved_sum) +
        " B/s) exceed the ION capacity (" + std::to_string(root_capacity) +
        " B/s)");
  }
}

TenantId TenantRegistry::find(const std::string& name) const {
  for (std::size_t i = 1; i < specs_.size(); ++i) {
    if (specs_[i].name == name) return static_cast<TenantId>(i);
  }
  return kDefaultTenant;
}

double TenantRegistry::class_weight(PriorityClass c) {
  switch (c) {
    case PriorityClass::Guaranteed: return kWeightGuaranteed;
    case PriorityClass::Burst: return kWeightBurst;
    case PriorityClass::BestEffort: return kWeightBestEffort;
  }
  return 1.0;
}

}  // namespace iofa::qos
