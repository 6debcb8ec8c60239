#include "lint/rules_metrics.hpp"

#include <set>

namespace iofa::lint {

// --- clock-hygiene --------------------------------------------------------

void ClockHygieneRule::scan(const FileModel& f, Reporter& rep) {
  // Determinism invariant: sim-time and replay depend on every timing
  // decision flowing through one clock. The owners are common/clock
  // (the monotonic source) and fault/clock (the injected wall clock).
  if (!f.in_path("src/")) return;
  if (f.in_path("common/clock.") || f.in_path("fault/clock.")) return;
  static const std::set<std::string> kChronoClocks = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  static const std::set<std::string> kCCalls = {
      "gettimeofday", "clock_gettime", "time", "ftime", "timespec_get"};
  const auto& code = f.code();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    bool hit = false;
    if (t.is_ident("std") &&
        match_code_seq(f, i, {"std", "::", "chrono", "::"}) &&
        i + 4 < code.size() &&
        kChronoClocks.count(f.tokens()[code[i + 4]].text)) {
      hit = true;
    } else if (t.is_ident("MonotonicClock") &&
               match_code_seq(f, i + 1, {"::", "now"})) {
      // Bypassing monotonic_now() defeats the single-read-site audit.
      hit = true;
    } else if (t.kind == TokenKind::kIdentifier && kCCalls.count(t.text)) {
      const Token* nxt = code_tok(f, i + 1);
      if (nxt && nxt->is_punct("(") && free_call_position(f, i)) {
        hit = true;
      }
    }
    if (hit) {
      rep.report(f, t.line, "clock-hygiene",
                 "direct clock read outside common/clock; use "
                 "iofa::monotonic_now()/monotonic_micros() (common/clock.hpp) "
                 "or the fault wall-clock (fault/clock.hpp)");
    }
  }
}

// --- metric-manifest ------------------------------------------------------

const Manifest* MetricManifestRule::manifest_for(const FileModel& f) {
  std::string candidate = override_;
  if (candidate.empty()) {
    // <root>/src/... -> <root>/src/telemetry/metrics_manifest.inc. Use
    // the LAST src/ segment so fixture trees (.../lint_fixtures/x/src/)
    // resolve to their own root, not the repo's.
    const std::string& p = f.path();
    std::size_t pos = std::string::npos;
    for (std::size_t at = p.find("src/"); at != std::string::npos;
         at = p.find("src/", at + 1)) {
      if (at == 0 || p[at - 1] == '/') pos = at;
    }
    if (pos == std::string::npos) return nullptr;
    candidate = p.substr(0, pos) + "src/telemetry/metrics_manifest.inc";
  }
  auto it = cache_.find(candidate);
  if (it == cache_.end()) {
    it = cache_.emplace(candidate, load_manifest(candidate)).first;
  }
  return it->second ? &*it->second : nullptr;
}

void MetricManifestRule::scan(const FileModel& f, Reporter& rep) {
  if (!f.in_path("src/")) return;
  static const std::set<std::string> kMakers = {"counter", "gauge",
                                                "histogram"};
  const auto& code = f.code();
  const Manifest* manifest = nullptr;  // resolved lazily on first use
  bool resolved = false;
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    if (t.kind != TokenKind::kIdentifier || !kMakers.count(t.text)) continue;
    if (!f.tokens()[code[i + 1]].is_punct("(")) continue;
    const Token& arg = f.tokens()[code[i + 2]];
    if (arg.kind != TokenKind::kString) continue;  // dynamic name: skip
    // Adjacent string literals fuse ("fwd.ion." "queue_wait_us").
    std::string name = arg.text;
    for (std::size_t j = i + 3;
         j < code.size() && f.tokens()[code[j]].kind == TokenKind::kString;
         ++j) {
      name += f.tokens()[code[j]].text;
    }
    if (!resolved) {
      manifest = manifest_for(f);
      resolved = true;
    }
    if (!manifest) return;  // no manifest for this tree: rule inactive
    const std::string* kind = manifest->kind_of(name);
    if (!kind) {
      rep.report(f, t.line, "metric-manifest",
                 "metric '" + name + "' is not declared in " +
                     manifest->path + "; add an IOFA_METRIC(" + t.text +
                     ", \"" + name + "\", \"...\") entry (or fix the "
                     "series name)");
    } else if (*kind != t.text) {
      rep.report(f, t.line, "metric-manifest",
                 "metric '" + name + "' is made as a " + t.text +
                     " but declared as a " + *kind + " in " +
                     manifest->path + "; fix the IOFA_METRIC kind (or the "
                     "maker)");
    }
  }
}

}  // namespace iofa::lint
