// iofa_arbitrate: command-line arbitration of I/O forwarding nodes.
//
// Reads a job-mix description (one application per line) and prints the
// allocation every policy would produce, plus the concrete mapping the
// arbiter publishes for the chosen policy. This is the tool a system
// operator (or the job manager's prolog) would call.
//
// Input format (stdin or a file; '#' comments):
//   <label> <compute_nodes> <processes> <ions>:<MB/s> [<ions>:<MB/s> ...]
// Example line:
//   IOR-MPI 16 128 0:780 1:268.4 2:900 4:2600 8:5089.9
//
// Usage:
//   iofa_arbitrate [--pool N] [--ratio R] [--policy NAME] [--demo] [file]
//     --pool N      forwarding nodes to arbitrate (default 12)
//     --ratio R     STATIC deployment ratio, compute nodes per ION
//     --policy P    mapping policy: mckp|static|size|process|one|zero|
//                   oracle|dfra|recruit (default mckp)
//     --demo        use the paper's Section 5.2 job mix instead of input
//
// Numbers must fill their token (the mapping file's rule). A negative
// pool, count or ION option, a ratio <= 0, an unknown policy or a
// malformed line is reported on stderr with exit status 2.

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/arbiter.hpp"
#include "core/related.hpp"
#include "platform/profile.hpp"
#include "workload/kernels.hpp"

namespace {

using namespace iofa;

/// A whole number >= 0.
bool parse_count(std::string_view tok, int& out) {
  return parse_number(tok, out) && out >= 0;
}

/// One profile line; on failure `why` names the bad part.
std::optional<core::AppEntry> parse_line(const std::string& line,
                                         std::string& why) {
  std::istringstream is(line);
  core::AppEntry entry;
  std::string nodes, procs;
  if (!(is >> entry.label >> nodes >> procs) ||
      !parse_count(nodes, entry.compute_nodes) ||
      !parse_count(procs, entry.processes)) {
    why = "want <label> <compute_nodes> <processes> as whole numbers >= 0";
    return std::nullopt;
  }
  std::vector<std::pair<int, MBps>> points;
  std::string tok;
  while (is >> tok) {
    const std::string_view t(tok);
    const auto colon = t.find(':');
    int ions = 0;
    MBps bw = 0.0;
    if (colon == std::string_view::npos ||
        !parse_count(t.substr(0, colon), ions) ||
        !parse_number(t.substr(colon + 1), bw) || !std::isfinite(bw) ||
        bw < 0.0) {
      why = "'" + tok + "' is not <ions>:<MB/s> with a whole ION option " +
            ">= 0 and a finite bandwidth >= 0";
      return std::nullopt;
    }
    for (const auto& [seen, unused] : points) {
      if (seen == ions) {
        why = "duplicate ION option " + std::to_string(ions);
        return std::nullopt;
      }
    }
    points.emplace_back(ions, bw);
  }
  if (points.empty()) {
    why = "no <ions>:<MB/s> points";
    return std::nullopt;
  }
  entry.curve = platform::BandwidthCurve(std::move(points));
  return entry;
}

/// nullptr for an unknown name.
std::shared_ptr<core::ArbitrationPolicy> make_policy(
    const std::string& name) {
  if (name == "mckp") return std::make_shared<core::MckpPolicy>();
  if (name == "static") return std::make_shared<core::StaticPolicy>();
  if (name == "size") return std::make_shared<core::SizePolicy>();
  if (name == "process") return std::make_shared<core::ProcessPolicy>();
  if (name == "one") return std::make_shared<core::OnePolicy>();
  if (name == "zero") return std::make_shared<core::ZeroPolicy>();
  if (name == "oracle") return std::make_shared<core::OraclePolicy>();
  if (name == "dfra") return std::make_shared<core::DfraPolicy>();
  if (name == "recruit") return std::make_shared<core::RecruitmentPolicy>();
  return nullptr;
}

int usage_error(const std::string& what) {
  std::cerr << "iofa_arbitrate: " << what << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int pool = 12;
  std::optional<double> ratio;
  std::string policy_name = "mckp";
  bool demo = false;
  std::string file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pool" && i + 1 < argc) {
      const std::string_view v = argv[++i];
      if (!parse_count(v, pool)) {
        return usage_error("--pool wants a whole number >= 0, got '" +
                           std::string(v) + "'");
      }
    } else if (arg == "--ratio" && i + 1 < argc) {
      const std::string_view v = argv[++i];
      double r = 0.0;
      if (!parse_number(v, r) || !(r > 0.0) || !std::isfinite(r)) {
        return usage_error("--ratio wants a finite number > 0, got '" +
                           std::string(v) + "'");
      }
      ratio = r;
    } else if (arg == "--policy" && i + 1 < argc) {
      policy_name = argv[++i];
      if (!make_policy(policy_name)) {
        return usage_error("unknown --policy '" + policy_name +
                           "' (mckp|static|size|process|one|zero|oracle|"
                           "dfra|recruit)");
      }
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: iofa_arbitrate [--pool N] [--ratio R] "
                   "[--policy P] [--demo] [file]\n";
      return 0;
    } else if (arg.starts_with("-")) {
      return usage_error("unknown option or missing value: " + arg);
    } else {
      file = arg;
    }
  }

  core::AllocationProblem problem;
  problem.pool = pool;
  problem.static_ratio = ratio;

  if (demo) {
    const auto db = platform::g5k_reference_profiles();
    if (!ratio) problem.static_ratio = 32.0;
    for (const auto& app : workload::section52_applications()) {
      problem.apps.push_back(core::AppEntry{
          app.label, app.compute_nodes, app.processes,
          db.at(app.label)});
    }
  } else {
    std::ifstream fin;
    std::istream* in = &std::cin;
    if (!file.empty()) {
      fin.open(file);
      if (!fin) {
        std::cerr << "cannot open " << file << "\n";
        return 1;
      }
      in = &fin;
    }
    std::string line;
    std::string why;
    for (int lineno = 1; std::getline(*in, line); ++lineno) {
      if (line.empty() || line[0] == '#') continue;
      auto entry = parse_line(line, why);
      if (!entry) {
        return usage_error("malformed line " + std::to_string(lineno) +
                           ": " + why + ": " + line);
      }
      problem.apps.push_back(std::move(*entry));
    }
  }

  if (problem.apps.empty()) {
    std::cerr << "no applications (try --demo)\n";
    return 1;
  }

  // Policy comparison table.
  Table table({"policy", "aggregate_MB/s", "ions_used", "allocation"});
  for (const char* name : {"zero", "one", "static", "size", "process",
                           "dfra", "recruit", "mckp", "oracle"}) {
    const auto policy = make_policy(name);
    const auto alloc = policy->allocate(problem);
    std::string detail;
    for (std::size_t i = 0; i < problem.apps.size(); ++i) {
      detail += problem.apps[i].label + "=" +
                std::to_string(alloc.ions[i]) + " ";
    }
    table.add_row({policy->name(), fmt(alloc.aggregate_bw(problem), 1),
                   std::to_string(alloc.total_ions()), detail});
  }
  table.print(std::cout);

  // The chosen policy's concrete mapping.
  core::Arbiter arbiter(make_policy(policy_name),
                        core::ArbiterOptions{pool, problem.static_ratio,
                                             policy_name != "static"});
  core::JobId id = 1;
  for (const auto& app : problem.apps) arbiter.job_started(id++, app);
  std::cout << "\nmapping (" << make_policy(policy_name)->name()
            << ", solve " << fmt(arbiter.last_solve_seconds() * 1e6, 1)
            << " us):\n"
            << arbiter.mapping().to_string();
  return 0;
}
