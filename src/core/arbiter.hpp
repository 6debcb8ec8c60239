#pragma once
// The arbiter: re-evaluates the ION allocation every time the set of
// running jobs changes (job started / job finished), translates the
// chosen counts into concrete ION identities with minimal churn, and
// publishes the result as an epoch-stamped mapping - the "mapping file"
// GekkoFWD clients poll at runtime.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/mckp.hpp"
#include "core/policies.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::core {

using JobId = std::uint64_t;

/// Epoch-stamped assignment of concrete ION identities to jobs.
struct Mapping {
  std::uint64_t epoch = 0;
  int pool = 0;

  struct Entry {
    std::string app_label;
    std::vector<int> ions;  ///< empty means direct PFS access
    bool shared = false;    ///< true when using the system-wide shared ION
    bool operator==(const Entry&) const = default;
  };
  std::map<JobId, Entry> jobs;

  /// The ids an Arbiter wrote or erased against its epoch - 1 (for
  /// MappingStore::publish); never serialized, compared or copied.
  struct ChangeLog {
    std::uint64_t publisher = 0;  ///< 0: nobody vouches for `ids`
    std::vector<JobId> ids;       ///< ascending
    ChangeLog() = default;
    ChangeLog(const ChangeLog&) {}
    ChangeLog& operator=(const ChangeLog&) {
      publisher = 0;
      ids.clear();
      return *this;
    }
    bool operator==(const ChangeLog&) const { return true; }
  };
  ChangeLog changes;

  /// The mapping-file text: a header line, then one line per job.
  /// Labels are single tokens: whitespace, control bytes and '%' are
  /// written as %XX and the empty label as a lone '%', so every label
  /// round-trips through parse().
  std::string to_string() const;
  /// Parse a serialized mapping; returns nullopt (never throws) on
  /// malformed input, including numbers that do not fill their token.
  static std::optional<Mapping> parse(const std::string& text);

  bool operator==(const Mapping&) const = default;
};

struct ArbiterOptions {
  int pool = 0;                      ///< forwarding nodes 0..pool-1
  std::optional<double> static_ratio;
  /// When false, running jobs keep their allocation and only new jobs
  /// receive nodes from the free pool (the paper's STATIC behaviour).
  bool reallocate_running = true;
  /// Metrics destination; nullptr means telemetry::Registry::global().
  telemetry::Registry* registry = nullptr;
  /// Reuse a warm-start MCKP tree across solves when the policy
  /// supports it: a job start, finish or profile change re-merges
  /// O(log n) nodes, ION failure/recovery only rescans the root. A pool
  /// resize falls back to a full rebuild.
  bool incremental = true;
};

class Arbiter {
 public:
  Arbiter(std::shared_ptr<ArbitrationPolicy> policy, ArbiterOptions options);

  /// Register a job and re-arbitrate. Returns the new mapping.
  /// Starting an id that is already running replaces its profile: it
  /// behaves as job_updated().
  const Mapping& job_started(JobId id, AppEntry app);
  /// Remove a job and re-arbitrate. Unknown ids are ignored: no solve,
  /// no epoch bump.
  const Mapping& job_finished(JobId id);
  /// Replace a running job's profile: one class update in the warm
  /// tree, then a re-solve and republish. Unknown ids are ignored.
  const Mapping& job_updated(JobId id, AppEntry app);

  /// Resize the forwarding pool (elastic recruitment of idle compute
  /// nodes - recruited IONs take ids >= the old pool size) and
  /// re-arbitrate. Returns the new mapping.
  const Mapping& set_pool(int pool);
  int pool() const { return options_.pool; }

  /// Failure-triggered re-solve (the HealthMonitor's entry points):
  /// mark an ION dead / alive again, re-run MCKP over the surviving
  /// set, and rematerialise identities so no job is mapped to a dead
  /// node. The published pool stays options_.pool - dead nodes keep
  /// their ids, they just become unassignable.
  const Mapping& ion_failed(int ion);
  const Mapping& ion_recovered(int ion);
  const std::set<int>& failed_ions() const { return failed_; }

  /// Overload hint (HealthMonitor): the ION is alive but saturated.
  /// Unlike ion_failed this NEVER evicts the node and NEVER triggers a
  /// re-solve - it only biases the next materialisation, which tops
  /// jobs up from the least-loaded free IONs first. load <= 0 clears
  /// the hint.
  void set_load_hint(int ion, double load);
  double load_hint(int ion) const;

  const Mapping& mapping() const { return mapping_; }
  std::size_t running_jobs() const { return running_.size(); }

  /// Wall time of the last policy solve (the 399 us figure of Sec. 5.3).
  /// Atomic: the HealthMonitor thread triggers failure re-solves while
  /// observers poll this concurrently.
  Seconds last_solve_seconds() const {
    return last_solve_seconds_.load(std::memory_order_relaxed);
  }

  /// Last allocation decision (per running job, same order as
  /// mapping().jobs iteration).
  const std::map<JobId, int>& last_counts() const { return counts_; }

 private:
  /// Re-solve and republish. `edited` names the one job whose class
  /// changed (started, finished or re-profiled) since the last solve.
  void arbitrate(std::optional<JobId> edited = std::nullopt);
  /// Apply changes_, touched_ and (layout change) every job to counts_
  /// and mapping_ in place, rewriting only the entries that differ (ids
  /// in mapping_.changes). Returns how many it rematerialised.
  std::size_t materialize(bool any_shared);
  /// Bring the warm tree in line with running_: upsert or erase the
  /// edited job's class, or rebuild from scratch while the tree is
  /// invalid. Returns true when it rebuilt.
  bool warm_sync(std::optional<JobId> edited);
  static MckpClass build_class(const AppEntry& app);

  std::shared_ptr<ArbitrationPolicy> policy_;
  ArbiterOptions options_;
  std::map<JobId, AppEntry> running_;
  std::size_t items_ = 0;  ///< MCKP items: curve options over running_
  std::map<JobId, int> counts_;
  std::set<int> failed_;  ///< IONs excluded from arbitration
  std::map<int, double> load_hints_;  ///< saturated-but-alive IONs
  Mapping mapping_;
  std::atomic<Seconds> last_solve_seconds_{0.0};

  // Materialisation layout of the last arbitration: which IONs could be
  // handed out exclusively and the shared node in effect (-1 = none).
  // When either changes, every job is rematerialised from scratch.
  std::vector<char> usable_;
  int shared_ion_ = -1;
  std::vector<char> held_;      ///< per ION: in some job's exclusive list
  std::vector<JobId> touched_;  ///< finished, re-profiled or short of IONs
  std::vector<std::pair<JobId, int>> changes_;  ///< the solved ION counts

  // Warm-start state. Invariant between solves: warm_ holds the classes
  // of running_ in key order (warm_valid_ == false means "rebuild
  // instead").
  bool warm_enabled_ = false;  ///< options_.incremental && policy supports it
  bool warm_valid_ = false;
  IncrementalMckp warm_;

  // Telemetry ("core.arbiter.*", labelled with the policy name): the
  // live analogue of the Sec. 5.3 solve-timing numbers.
  telemetry::Counter* ctr_solves_ = nullptr;
  telemetry::Counter* ctr_failure_resolves_ = nullptr;
  telemetry::Counter* ctr_load_hints_ = nullptr;
  telemetry::Counter* ctr_items_ = nullptr;
  telemetry::Counter* ctr_incremental_ = nullptr;
  telemetry::Counter* ctr_fallbacks_ = nullptr;
  telemetry::Counter* ctr_remapped_ = nullptr;
  telemetry::Counter* ctr_walk_nodes_ = nullptr;
  telemetry::Histogram* hist_solve_us_ = nullptr;
  telemetry::Histogram* hist_materialize_us_ = nullptr;
  telemetry::Histogram* hist_classes_ = nullptr;
  telemetry::Gauge* gauge_running_ = nullptr;
  telemetry::Gauge* gauge_pool_ = nullptr;
};

}  // namespace iofa::core
