// iofa_lint: project-specific source rules the compiler cannot check.
//
// This is a thin CLI over the static-analysis library in src/lint/
// (tokenizer, per-file scope model, rule plugins). It complements the
// IOFA_STRICT clang -Wthread-safety build (which proves lock/field
// contracts once they are declared) by enforcing that the contracts
// are declared at all, plus hygiene and whole-program rules:
//
//   naked-mutex      mutex member in a class with no IOFA_GUARDED_BY.
//   raw-sleep        sleeps / wall-clock calls outside common/clock.
//   raw-cout         std::cout/cerr in library code.
//   raw-rand         randomness outside the seeded iofa::Rng.
//   bare-units       bare `double ...bytes/seconds` in public headers.
//   raw-thread       std::thread outside the approved owners.
//   raw-token-bucket direct TokenBucket construction in fwd/qos.
//   swallowed-error  discarded failable calls / catch(...) in src/fwd.
//   typed-completion std::promise / std::future / std::exception_ptr in
//                    src/fwd or src/rpc (requests complete through
//                    typed continuations, fwd/request.hpp).
//   lock-order       whole-program: the static lock-acquisition graph
//                    (nested RAII scopes, IOFA_REQUIRES entry locks,
//                    IOFA_ACQUIRED_BEFORE/AFTER, calls made under a
//                    lock) must stay acyclic; a cycle is a potential
//                    deadlock. Dump the graph with --dot.
//   clock-hygiene    direct std::chrono clock reads / time() /
//                    gettimeofday outside common/clock and fault/clock.
//   metric-manifest  every counter/gauge/histogram series name used in
//                    src/ must be declared in
//                    src/telemetry/metrics_manifest.inc.
//
// A finding is suppressed by putting `iofa-lint: allow(<rule>)` in a
// comment on the same line (or a comment-only line directly above);
// the expectation is that the comment also says why. The rule name
// must match exactly, and tags only count inside comments.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/manifest.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: iofa_lint [options] <file-or-directory>...\n"
         "  --manifest <path>  metric manifest to check against (default:\n"
         "                     <root>/src/telemetry/metrics_manifest.inc,\n"
         "                     discovered per analyzed tree)\n"
         "  --dot <path>       write the static lock-acquisition graph as\n"
         "                     Graphviz DOT ('-' for stdout)\n"
         "  --catalog <path>   render the metric catalog markdown from the\n"
         "                     --manifest file ('-' for stdout)\n"
         "  --rules <a,b,...>  run only the named rules\n"
         "  --list-rules       list rules and exit\n";
  return 2;
}

bool write_output(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "iofa_lint: cannot write '" << path << "'\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  iofa::lint::AnalyzerOptions opts;
  std::string dot_path;
  std::string catalog_path;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "iofa_lint: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list-rules") {
      for (const auto& [name, desc] : iofa::lint::Analyzer::rule_list()) {
        std::cout << name << ": " << desc << "\n";
      }
      return 0;
    } else if (arg == "--manifest") {
      const char* v = value("--manifest");
      if (!v) return 2;
      opts.manifest_path = v;
    } else if (arg == "--dot") {
      const char* v = value("--dot");
      if (!v) return 2;
      dot_path = v;
    } else if (arg == "--catalog") {
      const char* v = value("--catalog");
      if (!v) return 2;
      catalog_path = v;
    } else if (arg == "--rules") {
      const char* v = value("--rules");
      if (!v) return 2;
      std::stringstream ss(v);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) opts.rules.push_back(name);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      roots.push_back(arg);
    }
  }

  if (!opts.rules.empty()) {
    const auto known = iofa::lint::Analyzer::rule_list();
    for (const auto& r : opts.rules) {
      bool ok = false;
      for (const auto& [name, desc] : known) ok = ok || name == r;
      if (!ok) {
        std::cerr << "iofa_lint: unknown rule '" << r << "'\n";
        return 2;
      }
    }
  }

  if (!catalog_path.empty()) {
    if (opts.manifest_path.empty()) {
      std::cerr << "iofa_lint: --catalog requires --manifest\n";
      return 2;
    }
    const auto m = iofa::lint::load_manifest(opts.manifest_path);
    if (!m) {
      std::cerr << "iofa_lint: cannot read manifest '" << opts.manifest_path
                << "'\n";
      return 2;
    }
    if (!write_output(catalog_path,
                      iofa::lint::manifest_catalog_markdown(*m))) {
      return 2;
    }
    if (roots.empty()) return 0;  // catalog-only invocation
  }

  if (roots.empty()) return usage();

  iofa::lint::Analyzer analyzer(opts);
  for (const auto& root : roots) {
    if (!analyzer.add_path(root)) {
      std::cerr << "iofa_lint: cannot read '" << root << "'\n";
      return 2;
    }
  }
  analyzer.finish();

  if (!dot_path.empty() &&
      !write_output(dot_path, analyzer.lock_graph_dot())) {
    return 2;
  }

  for (const auto& f : analyzer.findings()) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "iofa_lint: " << analyzer.file_count() << " files, "
            << analyzer.findings().size() << " finding(s)\n";
  return analyzer.findings().empty() ? 0 : 1;
}
