// Tests for the arbiter: epoch-stamped mappings, stable ION identity
// assignment across re-arbitrations, STATIC's no-reallocation rule, and
// mapping serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <set>
#include <vector>

#include "core/arbiter.hpp"
#include "platform/perf_model.hpp"
#include "platform/profile.hpp"
#include "workload/kernels.hpp"
#include "workload/pattern.hpp"

namespace iofa::core {
namespace {

AppEntry entry(const std::string& label) {
  const auto db = platform::g5k_reference_profiles();
  const auto app = workload::application(label);
  return AppEntry{label, app.compute_nodes, app.processes, db.at(label)};
}

ArbiterOptions opts(int pool, bool realloc = true) {
  ArbiterOptions o;
  o.pool = pool;
  o.static_ratio = 32.0;
  o.reallocate_running = realloc;
  return o;
}

// ------------------------------------------------------------- mapping
TEST(Mapping, SerializeParseRoundTrip) {
  Mapping m;
  m.epoch = 42;
  m.pool = 12;
  m.jobs[1] = Mapping::Entry{"IOR-MPI", {0, 1, 2}, false};
  m.jobs[2] = Mapping::Entry{"S3D", {}, false};
  m.jobs[3] = Mapping::Entry{"MAD", {11}, true};
  const auto parsed = Mapping::parse(m.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, m);
}

TEST(Mapping, ParseRejectsGarbage) {
  EXPECT_FALSE(Mapping::parse("not a mapping").has_value());
  EXPECT_FALSE(Mapping::parse("").has_value());
  EXPECT_FALSE(Mapping::parse("job x app y zzz\n").has_value());
}

TEST(Mapping, EveryLabelRoundTrips) {
  for (const std::string label :
       {"", "a b", "tab\t", "100%", "%", "%25", "line\nbreak", "\x7f"}) {
    Mapping m;
    m.epoch = 3;
    m.pool = 4;
    m.jobs[1] = Mapping::Entry{label, {0, 1}, false};
    m.jobs[2] = Mapping::Entry{"S3D", {}, false};
    m.jobs[3] = Mapping::Entry{label, {3}, true};
    const auto parsed = Mapping::parse(m.to_string());
    ASSERT_TRUE(parsed.has_value()) << m.to_string();
    EXPECT_EQ(*parsed, m) << m.to_string();
  }
}

TEST(Mapping, OrdinaryLabelsAreWrittenVerbatim) {
  Mapping m;
  m.epoch = 42;
  m.pool = 12;
  m.jobs[1] = Mapping::Entry{"IOR-MPI", {0, 1, 2}, false};
  m.jobs[2] = Mapping::Entry{"a b", {}, false};
  m.jobs[3] = Mapping::Entry{"", {11}, true};
  EXPECT_EQ(m.to_string(),
            "# iofa mapping epoch=42 pool=12\n"
            "job 1 app IOR-MPI ions 0,1,2\n"
            "job 2 app a%20b direct\n"
            "job 3 app % shared 11\n");
}

TEST(Mapping, ParseRejectsBadNumbersWithoutThrowing) {
  const std::string job = "job 1 app x ions 1,2\n";
  const std::vector<std::string> texts = {
      "# iofa mapping epoch=x pool=4\n" + job,
      "# iofa mapping epoch=18446744073709551616 pool=4\n" + job,
      "# iofa mapping epoch=1 pool=9999999999\n" + job,
      "# iofa mapping epoch=1 pool=4\njob 1 app x ions 1,x\n",
      "# iofa mapping epoch=1 pool=4\njob 1 app x ions 1,,2\n",
      "# iofa mapping epoch=1 pool=4\njob 1 app x shared 1,\n",
      "# iofa mapping epoch=1 pool=4\njob -1 app x direct\n",
      "# iofa mapping epoch=1 pool=4\njob 1 app x%4 direct\n",
      "# iofa mapping epoch=1 pool=4\njob 1 app x%zz direct\n",
  };
  for (const auto& text : texts) {
    std::optional<Mapping> parsed;
    EXPECT_NO_THROW(parsed = Mapping::parse(text)) << text;
    EXPECT_FALSE(parsed.has_value()) << text;
  }
}

TEST(Mapping, EverySingleByteMutationParsesWithoutThrowing) {
  Mapping m;
  m.epoch = 1234;
  m.pool = 12;
  m.jobs[1] = Mapping::Entry{"IOR-MPI", {0, 1, 2}, false};
  m.jobs[22] = Mapping::Entry{"S3D", {}, false};
  m.jobs[333] = Mapping::Entry{"MAD", {11}, true};
  const std::string text = m.to_string();
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (int byte = 0; byte < 256; ++byte) {
      std::string mutated = text;
      mutated[pos] = static_cast<char>(byte);
      std::optional<Mapping> parsed;
      ASSERT_NO_THROW(parsed = Mapping::parse(mutated))
          << "byte " << byte << " at " << pos;
      // Whatever the parser accepts, it can write back unchanged.
      if (parsed) {
        EXPECT_EQ(Mapping::parse(parsed->to_string()), parsed)
            << "byte " << byte << " at " << pos;
      }
    }
  }
}

TEST(Mapping, ToStringMentionsDirectAndShared) {
  Mapping m;
  m.epoch = 1;
  m.pool = 4;
  m.jobs[7] = Mapping::Entry{"S3D", {}, false};
  m.jobs[8] = Mapping::Entry{"MAD", {3}, true};
  const auto s = m.to_string();
  EXPECT_NE(s.find("direct"), std::string::npos);
  EXPECT_NE(s.find("shared"), std::string::npos);
}

// -------------------------------------------------------------- arbiter
TEST(Arbiter, EpochIncreasesOnEveryChange) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  const auto e1 = arb.job_started(1, entry("IOR-MPI")).epoch;
  const auto e2 = arb.job_started(2, entry("S3D")).epoch;
  const auto e3 = arb.job_finished(1).epoch;
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
}

TEST(Arbiter, SingleJobGetsItsBestWithinPool) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  const auto& m = arb.job_started(1, entry("IOR-MPI"));
  ASSERT_TRUE(m.jobs.count(1));
  EXPECT_EQ(m.jobs.at(1).ions.size(), 8u);  // IOR-MPI peaks at 8
}

TEST(Arbiter, AssignedIonsAreUniqueAcrossJobs) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.job_started(1, entry("IOR-MPI"));
  arb.job_started(2, entry("POSIX-L"));
  const auto& m = arb.job_started(3, entry("HACC"));
  std::set<int> seen;
  for (const auto& [id, e] : m.jobs) {
    for (int ion : e.ions) {
      EXPECT_TRUE(seen.insert(ion).second) << "ION " << ion << " reused";
      EXPECT_GE(ion, 0);
      EXPECT_LT(ion, 12);
    }
  }
}

TEST(Arbiter, KeepsIonIdentitiesWhenCountUnchanged) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.job_started(1, entry("IOR-MPI"));
  const auto before = arb.mapping().jobs.at(1).ions;
  // S3D takes 0 IONs, so job 1's allocation should be untouched.
  arb.job_started(2, entry("S3D"));
  const auto after = arb.mapping().jobs.at(1).ions;
  EXPECT_EQ(before, after);
}

TEST(Arbiter, ShrinkKeepsPrefixOfOldAssignment) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.job_started(1, entry("IOR-MPI"));  // 8 IONs
  const auto before = arb.mapping().jobs.at(1).ions;
  arb.job_started(2, entry("POSIX-L"));  // forces IOR-MPI to shrink or not
  const auto after = arb.mapping().jobs.at(1).ions;
  // Whatever the new count, the kept identities must be a subset of the
  // old ones (minimal churn).
  std::set<int> old_set(before.begin(), before.end());
  std::size_t kept = 0;
  for (int ion : after) kept += old_set.count(ion);
  EXPECT_EQ(kept, std::min(after.size(), before.size()));
}

TEST(Arbiter, FinishReleasesNodesForNextJob) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(8));
  arb.job_started(1, entry("IOR-MPI"));  // grabs all 8
  arb.job_started(2, entry("HACC"));
  const auto during = arb.mapping().jobs.at(2).ions.size();
  arb.job_finished(1);
  const auto after = arb.mapping().jobs.at(2).ions.size();
  EXPECT_GE(after, during);  // HACC can only gain once IOR-MPI leaves
  EXPECT_EQ(after, 8u);      // HACC's best is 8
}

TEST(Arbiter, StaticDoesNotReallocateRunningJobs) {
  Arbiter arb(std::make_shared<StaticPolicy>(), opts(12, false));
  arb.job_started(1, entry("HACC"));
  const auto before = arb.mapping().jobs.at(1).ions;
  arb.job_started(2, entry("BT-D"));
  arb.job_started(3, entry("IOR-MPI"));
  const auto after = arb.mapping().jobs.at(1).ions;
  EXPECT_EQ(before, after);
}

TEST(Arbiter, MckpDoesReallocateRunningJobs) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(8));
  arb.job_started(1, entry("HACC"));  // alone: gets 8
  EXPECT_EQ(arb.mapping().jobs.at(1).ions.size(), 8u);
  arb.job_started(2, entry("IOR-MPI"));
  // IOR-MPI at 8 is worth 5089.9; HACC must shrink.
  EXPECT_LT(arb.mapping().jobs.at(1).ions.size(), 8u);
}

// ----------------------------------------------------------- load hints

TEST(Arbiter, NoHintsKeepLegacyLowestIdTopUpOrder) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  const auto& m = arb.job_started(1, entry("IOR-MPI"));  // wants 8 of 12
  EXPECT_EQ(m.jobs.at(1).ions, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Arbiter, LoadHintSteersTopUpAwayFromSaturatedIon) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.set_load_hint(0, 2.5);  // ion 0 is drowning but alive
  const auto& m = arb.job_started(1, entry("IOR-MPI"));
  const auto& ions = m.jobs.at(1).ions;
  ASSERT_EQ(ions.size(), 8u);
  EXPECT_EQ(std::count(ions.begin(), ions.end(), 0), 0)
      << "saturated ION assigned despite 4 unloaded alternatives";
}

TEST(Arbiter, LoadHintNeverEvictsOrResolves) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.job_started(1, entry("IOR-MPI"));
  const auto before = arb.mapping().jobs.at(1).ions;
  const auto epoch_before = arb.mapping().epoch;
  arb.set_load_hint(3, 9.0);  // overloaded != dead
  EXPECT_EQ(arb.mapping().epoch, epoch_before);      // no re-solve
  EXPECT_EQ(arb.mapping().jobs.at(1).ions, before);  // no eviction
  EXPECT_TRUE(arb.failed_ions().empty());
  EXPECT_DOUBLE_EQ(arb.load_hint(3), 9.0);
}

TEST(Arbiter, LoadHintClearsAndIgnoresOutOfPoolIds) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.set_load_hint(3, 1.5);
  arb.set_load_hint(3, 0.0);  // back below the watermark: hint gone
  EXPECT_DOUBLE_EQ(arb.load_hint(3), 0.0);
  arb.set_load_hint(-1, 1.0);
  arb.set_load_hint(99, 1.0);
  EXPECT_DOUBLE_EQ(arb.load_hint(99), 0.0);
}

TEST(Arbiter, SolveTimeIsMeasuredAndSmall) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.job_started(1, entry("IOR-MPI"));
  EXPECT_GT(arb.last_solve_seconds(), 0.0);
  EXPECT_LT(arb.last_solve_seconds(), 0.1);  // paper: 399 us
}

TEST(Arbiter, CountsTrackRunningJobs) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  arb.job_started(1, entry("S3D"));
  arb.job_started(2, entry("MAD"));
  EXPECT_EQ(arb.running_jobs(), 2u);
  EXPECT_EQ(arb.last_counts().size(), 2u);
  arb.job_finished(2);
  EXPECT_EQ(arb.running_jobs(), 1u);
  EXPECT_EQ(arb.last_counts().size(), 1u);
  EXPECT_FALSE(arb.mapping().jobs.count(2));
}

TEST(Arbiter, PoolNeverExceeded) {
  Arbiter arb(std::make_shared<MckpPolicy>(), opts(12));
  std::uint64_t id = 1;
  for (const char* label : {"HACC", "IOR-MPI", "SIM", "POSIX-S", "MAD"}) {
    arb.job_started(id++, entry(label));
    std::set<int> used;
    for (const auto& [jid, e] : arb.mapping().jobs) {
      for (int ion : e.ions) used.insert(ion);
    }
    EXPECT_LE(used.size(), 12u);
  }
}

double counter_total(telemetry::Registry& reg, const std::string& name) {
  double total = 0.0;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

// ------------------------------------------------- duplicate job start
/// MN4 curves from the FORGE scenario grid (what the MCKP runtime sees).
std::vector<AppEntry> mn4_apps() {
  platform::PerfModel model(platform::mn4_params());
  const auto options = platform::default_ion_options();
  std::vector<AppEntry> apps;
  for (const auto& pattern : workload::mn4_scenario_grid()) {
    apps.push_back(AppEntry{"grid" + std::to_string(apps.size()),
                            pattern.compute_nodes, pattern.processes(),
                            platform::curve_from_model(model, pattern,
                                                       options)});
  }
  return apps;
}

/// The arbiter's counts must equal a fresh MCKP solve of `running`
/// over `pool` IONs (in JobId order, as the arbiter orders it).
void expect_fresh_counts(const Arbiter& arb,
                         const std::map<JobId, AppEntry>& running, int pool) {
  AllocationProblem p;
  p.pool = pool;
  for (const auto& [id, app] : running) p.apps.push_back(app);
  const auto fresh = MckpPolicy().allocate(p);
  ASSERT_EQ(arb.last_counts().size(), running.size());
  std::size_t i = 0;
  for (const auto& [id, app] : running) {
    const bool shared = i < fresh.shared.size() && fresh.shared[i] != 0;
    EXPECT_EQ(arb.last_counts().at(id), shared ? 0 : fresh.ions[i])
        << "job " << id << " (" << app.label << ")";
    ++i;
  }
}

TEST(Arbiter, DuplicateStartReplacesTheProfileAndMatchesFreshSolve) {
  const auto apps = mn4_apps();
  ASSERT_GE(apps.size(), 4u);
  const int pool = 8;
  // Walk curve triples: job 1 starts with `a`, job 2 with `b`, then job
  // 1 starts again with `c`. The second start replaces the profile, so
  // every later solve - warm or rebuilt - is over {c, b, ...}.
  for (std::size_t t = 0; t < 60; ++t) {
    const auto& a = apps[(t * 7) % apps.size()];
    const auto& b = apps[(t * 11 + 3) % apps.size()];
    const auto& c = apps[(t * 13 + 5) % apps.size()];
    SCOPED_TRACE(a.label + "/" + b.label + "/" + c.label);
    Arbiter arb(std::make_shared<MckpPolicy>(), opts(pool));
    std::map<JobId, AppEntry> running{{1, c}, {2, b}};
    arb.job_started(1, a);
    arb.job_started(2, b);
    const auto epoch = arb.mapping().epoch;
    arb.job_started(1, c);
    EXPECT_EQ(arb.mapping().epoch, epoch + 1);
    EXPECT_EQ(arb.running_jobs(), 2u);
    EXPECT_EQ(arb.mapping().jobs.at(1).app_label, c.label);
    expect_fresh_counts(arb, running, pool);

    // Incremental deltas on top of the replaced profile.
    arb.job_started(3, a);
    running[3] = a;
    expect_fresh_counts(arb, running, pool);
    arb.job_finished(2);
    running.erase(2);
    expect_fresh_counts(arb, running, pool);
    // A failure re-solve, and a pool resize that rebuilds the warm
    // table from the running set, agree too.
    arb.ion_failed(0);
    expect_fresh_counts(arb, running, pool - 1);
    arb.set_pool(pool + 2);
    expect_fresh_counts(arb, running, pool + 1);
  }
}

// ------------------------------------------------- remapped-job telemetry
TEST(Arbiter, EventRematerialisesOnlyTheJobsItRemaps) {
  telemetry::Registry reg;
  ArbiterOptions o;
  o.pool = 12;
  o.registry = &reg;
  Arbiter arb(std::make_shared<MckpPolicy>(), o);
  const auto apps = mn4_apps();
  for (JobId id = 1; id <= 256; ++id) {
    arb.job_started(id, apps[(id * 7) % apps.size()]);
  }
  ASSERT_EQ(arb.running_jobs(), 256u);
  auto remapped = [&] {
    return counter_total(reg, "core.arbiter.remapped_jobs");
  };
  // Jobs present before and after whose count changed.
  auto changed = [](const std::map<JobId, int>& before,
                    const std::map<JobId, int>& after) {
    double k = 0;
    for (const auto& [id, n] : after) {
      const auto it = before.find(id);
      if (it != before.end() && it->second != n) ++k;
    }
    return k;
  };

  double moved = 0;
  JobId next = 257;
  for (JobId id = 3; id <= 250; id += 31) {
    auto before = arb.last_counts();
    double r0 = remapped();
    arb.job_finished(id);
    const double k_finish = changed(before, arb.last_counts());
    EXPECT_EQ(remapped() - r0, k_finish) << "finish of job " << id;
    moved += k_finish;

    // Finishing a job that holds IONs hands them to other jobs. (With
    // exact ties, a finish of a job holding none moves no one.)
    before = arb.last_counts();
    const auto holder =
        std::find_if(before.begin(), before.end(),
                     [](const auto& entry) { return entry.second > 0; });
    ASSERT_NE(holder, before.end());
    r0 = remapped();
    arb.job_finished(holder->first);
    const double k_holder = changed(before, arb.last_counts());
    EXPECT_EQ(remapped() - r0, k_holder) << "finish of job " << holder->first;
    moved += k_holder;

    // A start rematerialises the new job plus the jobs it shrinks.
    before = arb.last_counts();
    r0 = remapped();
    arb.job_started(next, apps[(next * 5) % apps.size()]);
    const double k_start = changed(before, arb.last_counts());
    EXPECT_EQ(remapped() - r0, k_start + 1) << "start of job " << next;
    ++next;
  }
  EXPECT_GT(moved, 0) << "no finish moved a count: the check is vacuous";
  EXPECT_LT(moved, 8 * 256.0);

  // A profile update rewrites the updated entry (its label may have
  // changed); every other entry moves only if its count changes.
  for (int k = 0; k < 4; ++k) {
    const auto before = arb.last_counts();
    const JobId id = std::next(before.begin(), 10 + 50 * k)->first;
    const Mapping prev = arb.mapping();
    const double r0 = remapped();
    AppEntry app = apps[(id * 3) % apps.size()];
    app.label = "updated-" + std::to_string(id);
    arb.job_updated(id, app);
    EXPECT_EQ(arb.mapping().jobs.at(id).app_label, app.label);
    double k_update = 1;
    for (const auto& [job, n] : arb.last_counts()) {
      if (job == id) continue;
      if (before.at(job) != n) {
        ++k_update;
      } else {
        EXPECT_EQ(arb.mapping().jobs.at(job), prev.jobs.at(job))
            << "job " << job << " moved on the update of job " << id;
      }
    }
    EXPECT_EQ(remapped() - r0, k_update) << "update of job " << id;
  }

  // An ION failure changes the layout: every running job is redone.
  const double r0 = remapped();
  arb.ion_failed(5);
  EXPECT_EQ(remapped() - r0, static_cast<double>(arb.running_jobs()));

  // One materialisation timing per arbitration.
  const auto snap = reg.snapshot();
  std::uint64_t timed = 0;
  for (const auto& sample : snap.samples) {
    if (sample.name == "core.arbiter.materialize_us") {
      timed += sample.histogram->count;
    }
  }
  EXPECT_EQ(static_cast<double>(timed),
            counter_total(reg, "core.arbiter.solves"));
}

}  // namespace
}  // namespace iofa::core
