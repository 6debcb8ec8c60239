#pragma once
// Metric manifest support: parse src/telemetry/metrics_manifest.inc
// (the checked-in list of every telemetry series the runtime may emit)
// and render the human-readable catalog from it.
//
// The .inc is an X-macro list; the linter parses it with its own
// lexer, so the metric-manifest rule needs no build products.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace iofa::lint {

struct ManifestEntry {
  std::string kind;  ///< "counter" | "gauge" | "histogram"
  std::string name;
  std::string help;
  std::size_t line = 0;
};

struct Manifest {
  std::string path;
  std::vector<ManifestEntry> entries;
  std::map<std::string, std::string> kinds;  ///< name -> declared kind

  /// Declared kind of `name`; nullptr when it is not declared.
  const std::string* kind_of(const std::string& name) const {
    const auto it = kinds.find(name);
    return it == kinds.end() ? nullptr : &it->second;
  }
};

/// Parse a manifest file. nullopt when the file cannot be read; parse
/// oddities (lines that are not IOFA_METRIC(...)) are skipped.
std::optional<Manifest> load_manifest(const std::string& path);

/// Markdown catalog (docs/METRICS.md) — deterministic, manifest order.
std::string manifest_catalog_markdown(const Manifest& m);

}  // namespace iofa::lint
