#pragma once
// clock-hygiene: direct wall/steady clock reads are confined to the
// approved owners (common/clock, the fault wall-clock).
// metric-manifest: every telemetry series name used in src/ must be
// declared in src/telemetry/metrics_manifest.inc, with the kind of the
// Registry maker that creates it.

#include <map>
#include <optional>
#include <string>

#include "lint/manifest.hpp"
#include "lint/rule.hpp"

namespace iofa::lint {

class ClockHygieneRule : public Rule {
 public:
  std::string_view name() const override { return "clock-hygiene"; }
  std::string_view description() const override {
    return "clock reads confined to common/clock and the fault clock";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class MetricManifestRule : public Rule {
 public:
  /// `manifest_override`: explicit manifest path (--manifest). Empty
  /// means auto-discover `<root>/src/telemetry/metrics_manifest.inc`
  /// per file from the `src/` component of its path; files whose root
  /// has no manifest are skipped (the rule is opt-in per tree).
  explicit MetricManifestRule(std::string manifest_override = "")
      : override_(std::move(manifest_override)) {}

  std::string_view name() const override { return "metric-manifest"; }
  std::string_view description() const override {
    return "telemetry series must be declared in the manifest, same kind";
  }
  void scan(const FileModel& file, Reporter& rep) override;

 private:
  const Manifest* manifest_for(const FileModel& file);

  std::string override_;
  // Cache: manifest path -> parsed manifest (nullopt = not readable).
  std::map<std::string, std::optional<Manifest>> cache_;
};

}  // namespace iofa::lint
