#include "core/arbiter.hpp"
#include "common/clock.hpp"
#include "common/parse.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>
#include <string_view>

#include "telemetry/trace.hpp"

namespace iofa::core {

namespace {

using Change = std::pair<JobId, int>;  ///< a job's solved ION count
constexpr int kShared = -1;  ///< the job uses the shared ION
constexpr int kKeep = -2;    ///< the job keeps its count in counts_

// Labels travel as whitespace-delimited tokens: whitespace, control
// bytes and '%' are written as %XX, and the empty label as a lone "%"
// (an escape always carries two hex digits, so no other label encodes
// to it). Every other label is written byte for byte.
void write_label(std::ostream& os, const std::string& label) {
  if (label.empty()) {
    os << '%';
    return;
  }
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (const char ch : label) {
    const auto c = static_cast<unsigned char>(ch);
    if (c <= ' ' || c == 0x7F || c == '%') {
      os << '%' << kHex[c >> 4] << kHex[c & 0xF];
    } else {
      os << ch;
    }
  }
}

std::optional<std::string> read_label(std::string_view tok) {
  if (tok == "%") return std::string();
  std::string label;
  label.reserve(tok.size());
  for (std::size_t i = 0; i < tok.size(); ++i) {
    if (tok[i] != '%') {
      label += tok[i];
      continue;
    }
    unsigned byte = 0;
    if (i + 2 >= tok.size() || !parse_number(tok.substr(i + 1, 2), byte, 16)) {
      return std::nullopt;
    }
    label += static_cast<char>(byte);
    i += 2;
  }
  return label;
}

/// "1,5,7" -> {1, 5, 7}; false on an empty or non-numeric item.
bool parse_ions(std::string_view list, std::vector<int>& ions) {
  for (;;) {
    const auto comma = list.find(',');
    int ion = 0;
    if (!parse_number(list.substr(0, comma), ion)) return false;
    ions.push_back(ion);
    if (comma == std::string_view::npos) return true;
    list.remove_prefix(comma + 1);
  }
}

}  // namespace

std::string Mapping::to_string() const {
  std::ostringstream os;
  os << "# iofa mapping epoch=" << epoch << " pool=" << pool << "\n";
  for (const auto& [id, entry] : jobs) {
    os << "job " << id << " app ";
    write_label(os, entry.app_label);
    if (entry.shared) {
      os << " shared";
      for (std::size_t i = 0; i < entry.ions.size(); ++i) {
        os << (i ? "," : " ");
        os << entry.ions[i];
      }
    } else if (entry.ions.empty()) {
      os << " direct";
    } else {
      os << " ions ";
      for (std::size_t i = 0; i < entry.ions.size(); ++i) {
        if (i) os << ",";
        os << entry.ions[i];
      }
    }
    os << "\n";
  }
  return os.str();
}

std::optional<Mapping> Mapping::parse(const std::string& text) {
  Mapping m;
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == "#") {
      // "# iofa mapping epoch=N pool=P"
      std::string word;
      while (ls >> word) {
        const std::string_view w(word);
        if (w.starts_with("epoch=")) {
          if (!parse_number(w.substr(6), m.epoch)) return std::nullopt;
          saw_header = true;
        } else if (w.starts_with("pool=")) {
          if (!parse_number(w.substr(5), m.pool)) return std::nullopt;
        }
      }
      continue;
    }
    if (tok != "job") return std::nullopt;
    std::string id_tok, app_kw, label_tok, mode;
    if (!(ls >> id_tok >> app_kw >> label_tok >> mode)) return std::nullopt;
    JobId id = 0;
    if (!parse_number(id_tok, id) || app_kw != "app") return std::nullopt;
    auto label = read_label(label_tok);
    if (!label) return std::nullopt;
    Entry entry;
    entry.app_label = std::move(*label);
    if (mode == "shared") {
      entry.shared = true;
      std::string list;
      if (ls >> list && !parse_ions(list, entry.ions)) return std::nullopt;
    } else if (mode == "direct") {
      // empty ion list
    } else if (mode == "ions") {
      std::string list;
      if (!(ls >> list) || !parse_ions(list, entry.ions)) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
    m.jobs.emplace(id, std::move(entry));
  }
  if (!saw_header) return std::nullopt;
  return m;
}

Arbiter::Arbiter(std::shared_ptr<ArbitrationPolicy> policy,
                 ArbiterOptions options)
    : policy_(std::move(policy)), options_(options) {
  mapping_.pool = options_.pool;
  static std::atomic<std::uint64_t> publishers{0};
  mapping_.changes.publisher = ++publishers;
  warm_enabled_ = options_.incremental && policy_->supports_warm_start();

  auto& reg = options_.registry ? *options_.registry
                                : telemetry::Registry::global();
  const telemetry::Labels labels{{"policy", policy_->name()}};
  ctr_solves_ = &reg.counter("core.arbiter.solves", labels);
  ctr_failure_resolves_ = &reg.counter("arbiter.resolves_on_failure", labels);
  ctr_load_hints_ = &reg.counter("core.arbiter.load_hints", labels);
  ctr_items_ = &reg.counter("core.arbiter.items", labels);
  ctr_incremental_ = &reg.counter("core.arbiter.incremental_solves", labels);
  ctr_fallbacks_ = &reg.counter("core.arbiter.full_fallbacks", labels);
  ctr_remapped_ = &reg.counter("core.arbiter.remapped_jobs", labels);
  ctr_walk_nodes_ = &reg.counter("core.arbiter.walk_nodes", labels);
  hist_solve_us_ = &reg.histogram("core.arbiter.solve_us",
                                  telemetry::BucketSpec::latency_us(), labels);
  hist_materialize_us_ = &reg.histogram(
      "core.arbiter.materialize_us", telemetry::BucketSpec::latency_us(),
      labels);
  hist_classes_ = &reg.histogram("core.arbiter.classes",
                                 telemetry::BucketSpec{1.0, 12}, labels);
  gauge_running_ = &reg.gauge("core.arbiter.running_jobs", labels);
  gauge_pool_ = &reg.gauge("core.arbiter.pool", labels);
}

const Mapping& Arbiter::job_started(JobId id, AppEntry app) {
  if (running_.contains(id)) return job_updated(id, std::move(app));
  items_ += app.curve.options().size();
  running_.emplace(id, std::move(app));
  arbitrate(id);
  return mapping_;
}

const Mapping& Arbiter::job_finished(JobId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) return mapping_;
  items_ -= it->second.curve.options().size();
  running_.erase(it);
  touched_.push_back(id);
  arbitrate(id);
  return mapping_;
}

const Mapping& Arbiter::job_updated(JobId id, AppEntry app) {
  auto it = running_.find(id);
  if (it == running_.end()) return mapping_;
  items_ += app.curve.options().size();
  items_ -= it->second.curve.options().size();
  it->second = std::move(app);
  // The label may have changed too: the entry is rewritten.
  touched_.push_back(id);
  arbitrate(id);
  return mapping_;
}

const Mapping& Arbiter::set_pool(int pool) {
  options_.pool = pool;
  // Recovered-beyond-pool ids would otherwise linger in failed_.
  failed_.erase(failed_.lower_bound(pool), failed_.end());
  // The warm tree is sized by the physical pool: resize rebuilds it.
  warm_valid_ = false;
  arbitrate();
  return mapping_;
}

const Mapping& Arbiter::ion_failed(int ion) {
  if (ion >= 0 && ion < options_.pool && failed_.insert(ion).second) {
    ctr_failure_resolves_->add();
    arbitrate();
  }
  return mapping_;
}

const Mapping& Arbiter::ion_recovered(int ion) {
  if (failed_.erase(ion) == 0) return mapping_;
  arbitrate();
  return mapping_;
}

void Arbiter::set_load_hint(int ion, double load) {
  if (ion < 0 || ion >= options_.pool) return;
  if (load <= 0.0) {
    load_hints_.erase(ion);
    return;
  }
  // Overloaded != dead: the node stays in the arbitration set (no
  // eviction, no re-solve); the hint only reorders the next top-up.
  if (load_hints_.insert_or_assign(ion, load).second) {
    ctr_load_hints_->add();
  }
}

double Arbiter::load_hint(int ion) const {
  auto it = load_hints_.find(ion);
  return it == load_hints_.end() ? 0.0 : it->second;
}

MckpClass Arbiter::build_class(const AppEntry& app) {
  // Unfiltered: options heavier than the table's max weight are
  // skipped inside IncrementalMckp, which is exactly what the policy's
  // capacity filter achieves (see the identity note in mckp.hpp).
  MckpClass cls;
  const auto& opts = app.curve.options();
  cls.reserve(opts.size());
  for (int opt : opts) cls.push_back(MckpItem{opt, app.curve.at(opt)});
  return cls;
}

bool Arbiter::warm_sync(std::optional<JobId> edited) {
  if (warm_valid_) {
    if (!edited) return false;
    const auto it = running_.find(*edited);
    if (it == running_.end()) {
      warm_.erase(*edited);
    } else {
      warm_.upsert(*edited, build_class(it->second));
    }
    return false;
  }
  std::vector<std::pair<std::uint64_t, MckpClass>> classes;
  classes.reserve(running_.size());
  for (const auto& [id, app] : running_) {
    classes.emplace_back(id, build_class(app));
  }
  warm_.assign(options_.pool, std::move(classes));
  warm_valid_ = true;
  return true;
}

void Arbiter::arbitrate(std::optional<JobId> edited) {
  telemetry::ScopedSpan span("arbitrate", "core.arbiter", "jobs",
                             static_cast<std::int64_t>(running_.size()));
  // The policy solves over the SURVIVING pool: dead IONs contribute no
  // capacity (Eq. 2 recomputed on survivors).
  const int capacity = options_.pool - static_cast<int>(failed_.size());

  // Warm path first: edit the persisted tree (the edited job's path
  // only) and read the changed counts off its root. The full
  // policy solve remains for infeasible primaries, where the policy
  // owns the shared-ION fallback of Section 3.1.
  Seconds solve_seconds = 0.0;
  bool warm_used = false;
  if (warm_enabled_) {
    const auto t0 = iofa::monotonic_now();
    const bool rebuilt = warm_sync(edited);
    const std::uint64_t walked = warm_.nodes_walked();
    warm_used = warm_.solve_changes(capacity, changes_);
    solve_seconds +=
        std::chrono::duration<double>(iofa::monotonic_now() - t0).count();
    ctr_walk_nodes_->add(warm_.nodes_walked() - walked);
    if (warm_used) {
      (rebuilt ? ctr_fallbacks_ : ctr_incremental_)->add();
    } else {
      // Primary infeasible (possible only with classes present):
      // delegate to the policy, which owns the shared fallback.
      ctr_fallbacks_->add();
    }
  }

  bool any_shared = false;
  if (!warm_used) {
    AllocationProblem problem;
    problem.pool = capacity;
    problem.static_ratio = options_.static_ratio;
    problem.apps.reserve(running_.size());
    for (const auto& [id, app] : running_) problem.apps.push_back(app);

    const auto t0 = iofa::monotonic_now();
    const Allocation alloc = policy_->allocate(problem);
    solve_seconds +=
        std::chrono::duration<double>(iofa::monotonic_now() - t0).count();

    // The change list is the allocation diffed against counts_; with a
    // shared node in play (0 may be direct or shared) every job.
    any_shared = std::ranges::any_of(alloc.shared, [](char s) { return s; });
    changes_.clear();
    auto cnt = counts_.begin();
    for (std::size_t i = 0; const auto& [id, app] : running_) {
      const int n = any_shared && alloc.shared[i] ? kShared : alloc.ions[i];
      ++i;
      while (cnt != counts_.end() && cnt->first < id) ++cnt;
      if (any_shared || cnt == counts_.end() || cnt->second != n ||
          cnt->first != id) {
        changes_.emplace_back(id, n);
      }
    }
  }
  last_solve_seconds_.store(solve_seconds, std::memory_order_relaxed);

  ctr_solves_->add();
  ctr_items_->add(items_);
  hist_solve_us_->observe(solve_seconds * 1e6);
  hist_classes_->observe(static_cast<double>(running_.size()));
  gauge_running_->set(static_cast<double>(running_.size()));
  gauge_pool_->set(static_cast<double>(options_.pool));

  const auto t0 = iofa::monotonic_now();
  ctr_remapped_->add(materialize(any_shared));
  hist_materialize_us_->observe(
      std::chrono::duration<double, std::micro>(iofa::monotonic_now() - t0)
          .count());
}

std::size_t Arbiter::materialize(bool any_shared) {
  ++mapping_.epoch;
  mapping_.pool = options_.pool;
  const int pool = options_.pool;
  mapping_.changes.ids.clear();

  // Identities come from the surviving nodes only; dead ones keep their
  // ids but are unassignable until ion_recovered(). The shared ION, when
  // needed, is the highest-numbered LIVE node.
  std::vector<char> usable(static_cast<std::size_t>(pool), 0);
  int last_alive = -1;
  for (int ion = 0; ion < pool; ++ion) {
    if (!failed_.contains(ion)) {
      usable[ion] = 1;
      last_alive = ion;
    }
  }
  const int shared_ion = any_shared ? last_alive : -1;
  if (shared_ion >= 0) usable[shared_ion] = 0;

  // A layout change (ION death or recovery, pool resize, the shared
  // node coming or going) invalidates every kept assignment:
  // rematerialise all jobs, which is the from-scratch result.
  const bool layout = usable != usable_ || shared_ion != shared_ion_;
  usable_ = std::move(usable);
  shared_ion_ = shared_ion;

  // A solved count comes first among its id's entries: it wins the dedup.
  for (const JobId id : touched_) changes_.emplace_back(id, kKeep);
  touched_.clear();
  if (layout) {
    held_.assign(static_cast<std::size_t>(pool), 0);
    for (const auto& [id, app] : running_) changes_.emplace_back(id, kKeep);
  }
  std::ranges::stable_sort(changes_, {}, &Change::first);
  const auto dups = std::ranges::unique(changes_, {}, &Change::first);
  changes_.erase(dups.begin(), dups.end());

  // Keep the usable prefix of up to `want` of an entry's exclusive
  // IONs; the rest go back to the free pool.
  const auto trim = [&](Mapping::Entry& entry, std::size_t want) {
    if (entry.shared) entry.ions.clear();
    std::size_t kept = 0;
    for (const int ion : entry.ions) {
      const bool keep = kept < want && ion < pool && usable_[ion];
      if (keep) entry.ions[kept++] = ion;
      if (ion < pool) held_[ion] = keep;
    }
    entry.ions.resize(kept);
  };
  // Changed jobs, trimmed and then topped up below.
  std::vector<std::pair<decltype(mapping_.jobs)::iterator, std::size_t>>
      dirty;
  std::size_t remapped = 0;
  for (const auto& [id, solved] : changes_) {
    const auto run = running_.find(id);
    auto job = mapping_.jobs.find(id);
    const bool fresh = job == mapping_.jobs.end();
    if (run == running_.end()) {
      counts_.erase(id);
      if (fresh) continue;
      trim(job->second, 0);
      mapping_.jobs.erase(job);
      mapping_.changes.ids.push_back(id);
      continue;
    }
    const auto [cnt, added] = counts_.try_emplace(id, 0);
    int n = solved;
    // STATIC never reshuffles running jobs.
    if (!added && (n == kKeep || !options_.reallocate_running)) {
      n = cnt->second;
    }
    assert(n != kKeep);
    const bool is_shared = solved == kShared;
    cnt->second = n = std::max(n, 0);

    if (fresh) job = mapping_.jobs.emplace(id, Mapping::Entry{}).first;
    Mapping::Entry& entry = job->second;
    const std::size_t want = static_cast<std::size_t>(n);
    if (!fresh && !layout && entry.shared == is_shared &&
        (is_shared || entry.ions.size() == want) &&
        entry.app_label == run->second.label) {
      continue;
    }

    ++remapped;
    mapping_.changes.ids.push_back(id);
    entry.app_label = run->second.label;
    trim(entry, is_shared ? 0 : want);
    if (is_shared) {
      // Whole pool dead: nothing to share, the job goes direct.
      entry.ions.assign(shared_ion >= 0 ? 1 : 0, shared_ion);
    } else {
      dirty.emplace_back(job, want);
    }
    entry.shared = is_shared;
  }
  changes_.clear();
  if (dirty.empty()) return remapped;

  // Top the changed jobs up in id order from the free pool -
  // least-loaded first per the HealthMonitor's overload hints, lowest
  // id breaking ties (with no hints this is the lowest-id order).
  std::vector<int> free_order;
  for (int ion = 0; ion < pool; ++ion) {
    if (usable_[ion] && !held_[ion]) free_order.push_back(ion);
  }
  std::stable_sort(free_order.begin(), free_order.end(),
                   [this](int a, int b) {
                     return load_hint(a) < load_hint(b);
                   });
  std::size_t next_free = 0;
  for (const auto& [job, want] : dirty) {
    auto& ions = job->second.ions;
    while (ions.size() < want && next_free < free_order.size()) {
      held_[free_order[next_free]] = 1;
      ions.push_back(free_order[next_free++]);
    }
    std::sort(ions.begin(), ions.end());
    if (ions.size() < want) touched_.push_back(job->first);
  }
  return remapped;
}

}  // namespace iofa::core
