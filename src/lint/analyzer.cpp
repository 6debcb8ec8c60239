#include "lint/analyzer.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "lint/lexer.hpp"
#include "lint/rules_concurrency.hpp"
#include "lint/rules_metrics.hpp"
#include "lint/rules_style.hpp"

namespace iofa::lint {

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

std::vector<std::unique_ptr<Rule>> make_all_rules(
    const AnalyzerOptions& opts) {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<NakedMutexRule>());
  rules.push_back(std::make_unique<RawSleepRule>());
  rules.push_back(std::make_unique<RawRandRule>());
  rules.push_back(std::make_unique<RawCoutRule>());
  rules.push_back(std::make_unique<RawThreadRule>());
  rules.push_back(std::make_unique<BareUnitsRule>());
  rules.push_back(std::make_unique<RawTokenBucketRule>());
  rules.push_back(std::make_unique<RawPayloadRule>());
  rules.push_back(std::make_unique<RawWireRule>());
  rules.push_back(std::make_unique<TypedCompletionRule>());
  rules.push_back(std::make_unique<SwallowedErrorRule>());
  rules.push_back(std::make_unique<LockOrderRule>());
  rules.push_back(std::make_unique<ClockHygieneRule>());
  rules.push_back(std::make_unique<MetricManifestRule>(opts.manifest_path));
  return rules;
}

}  // namespace

Analyzer::Analyzer(AnalyzerOptions opts) {
  rules_ = make_all_rules(opts);
  if (!opts.rules.empty()) {
    std::erase_if(rules_, [&](const std::unique_ptr<Rule>& r) {
      return std::find(opts.rules.begin(), opts.rules.end(),
                       std::string(r->name())) == opts.rules.end();
    });
  }
  for (const auto& r : rules_) {
    if (r->name() == "lock-order") {
      lock_order_ = static_cast<LockOrderRule*>(r.get());
    }
  }
}

Analyzer::~Analyzer() = default;

bool Analyzer::add_path(const fs::path& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> entries;
    for (const auto& entry :
         fs::recursive_directory_iterator(path, ec)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        entries.push_back(entry.path());
      }
    }
    if (ec) return false;
    std::sort(entries.begin(), entries.end());
    for (const auto& p : entries) add_file(p);
    return true;
  }
  if (fs::is_regular_file(path, ec)) {
    add_file(path);
    return true;
  }
  return false;
}

void Analyzer::add_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return;
  std::ostringstream buf;
  buf << in.rdbuf();
  auto model =
      std::make_unique<FileModel>(path.generic_string(), lex(buf.str()));
  Reporter rep(findings_);
  for (const auto& r : rules_) r->scan(*model, rep);
  files_.push_back(std::move(model));
}

void Analyzer::finish() {
  if (finished_) return;
  finished_ = true;
  Program prog(files_);
  Reporter rep(findings_);
  for (const auto& r : rules_) r->finalize(prog, rep);
  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

std::string Analyzer::lock_graph_dot() const {
  return lock_order_ ? lock_order_->dot() : std::string();
}

std::vector<std::pair<std::string, std::string>> Analyzer::rule_list() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& r : make_all_rules(AnalyzerOptions{})) {
    out.emplace_back(std::string(r->name()), std::string(r->description()));
  }
  return out;
}

}  // namespace iofa::lint
