#include "lint/manifest.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "lint/lexer.hpp"

namespace iofa::lint {

std::optional<Manifest> load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string source = buf.str();

  Manifest m;
  m.path = path;
  const TokenStream toks = lex(source);
  for (std::size_t i = 0; i + 5 < toks.size(); ++i) {
    if (!toks[i].is_ident("IOFA_METRIC") || !toks[i + 1].is_punct("(")) {
      continue;
    }
    // IOFA_METRIC(kind, "name", "help text")
    if (toks[i + 2].kind != TokenKind::kIdentifier) continue;
    if (!toks[i + 3].is_punct(",")) continue;
    if (toks[i + 4].kind != TokenKind::kString) continue;
    ManifestEntry e;
    e.kind = toks[i + 2].text;
    e.name = toks[i + 4].text;
    e.line = toks[i].line;
    // Help: adjacent string literals after the second comma, fused.
    std::size_t j = i + 5;
    if (j < toks.size() && toks[j].is_punct(",")) {
      ++j;
      while (j < toks.size() && toks[j].kind == TokenKind::kString) {
        e.help += toks[j].text;
        ++j;
      }
    }
    m.kinds.emplace(e.name, e.kind);
    m.entries.push_back(std::move(e));
  }
  return m;
}

std::string manifest_catalog_markdown(const Manifest& m) {
  // Group by the first dotted component so the catalog reads by
  // subsystem (agios.*, fwd.*, qos.*, ...).
  std::map<std::string, std::vector<const ManifestEntry*>> groups;
  for (const auto& e : m.entries) {
    const auto dot = e.name.find('.');
    groups[dot == std::string::npos ? e.name : e.name.substr(0, dot)]
        .push_back(&e);
  }
  std::ostringstream out;
  out << "# Metric catalog\n\n"
      << "Generated from `src/telemetry/metrics_manifest.inc` by\n"
      << "`iofa_lint --manifest src/telemetry/metrics_manifest.inc "
         "--catalog docs/METRICS.md`.\n"
      << "Do not edit by hand — edit the manifest and regenerate.\n"
      << "Every series the runtime emits must be listed in the manifest;\n"
      << "the `metric-manifest` lint rule fails the build otherwise.\n";
  for (const auto& [group, entries] : groups) {
    out << "\n## " << group << ".*\n\n";
    out << "| metric | kind | description |\n";
    out << "|---|---|---|\n";
    for (const ManifestEntry* e : entries) {
      out << "| `" << e->name << "` | " << e->kind << " | " << e->help
          << " |\n";
    }
  }
  return out.str();
}

}  // namespace iofa::lint
