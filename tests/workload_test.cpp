// Tests for the workload substrate: patterns, the MN4 scenario grid, the
// Table 3 application kernels and the queue generator.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "workload/kernels.hpp"
#include "workload/pattern.hpp"
#include "workload/queuegen.hpp"

namespace iofa::workload {
namespace {

// ---------------------------------------------------------------- grid
TEST(Mn4Grid, HasExactly189Scenarios) {
  EXPECT_EQ(mn4_scenario_grid().size(), 189u);
}

TEST(Mn4Grid, NoFppStridedCombination) {
  for (const auto& p : mn4_scenario_grid()) {
    EXPECT_FALSE(p.layout == FileLayout::FilePerProcess &&
                 p.spatiality == Spatiality::Strided1D)
        << p.to_string();
  }
}

TEST(Mn4Grid, CoversAllNodeAndPpnCombinations) {
  std::set<std::pair<int, int>> combos;
  for (const auto& p : mn4_scenario_grid()) {
    combos.insert({p.compute_nodes, p.processes_per_node});
  }
  EXPECT_EQ(combos.size(), 9u);  // {8,16,32} x {12,24,48}
}

TEST(Mn4Grid, CoversSevenRequestSizes) {
  std::set<Bytes> sizes;
  for (const auto& p : mn4_scenario_grid()) sizes.insert(p.request_size);
  EXPECT_EQ(sizes.size(), 7u);
  EXPECT_TRUE(sizes.count(32 * KiB));
  EXPECT_TRUE(sizes.count(8192 * KiB));
}

TEST(Mn4Grid, AllScenariosAreWrites) {
  for (const auto& p : mn4_scenario_grid()) {
    EXPECT_EQ(p.operation, Operation::Write);
  }
}

TEST(Mn4Grid, VolumesArePositiveAndBounded) {
  for (const auto& p : mn4_scenario_grid()) {
    EXPECT_GE(p.total_bytes, 256 * MiB);
    EXPECT_LE(p.total_bytes, 64 * GiB);
  }
}

// --------------------------------------------------------- Table 2 set
TEST(Table2, HasEightNamedPatterns) {
  const auto pats = table2_patterns();
  ASSERT_EQ(pats.size(), 8u);
  for (std::size_t i = 0; i < pats.size(); ++i) {
    EXPECT_EQ(pats[i].name, static_cast<char>('A' + i));
  }
}

TEST(Table2, MatchesPaperRows) {
  const auto pats = table2_patterns();
  auto find = [&](char name) {
    for (const auto& np : pats) {
      if (np.name == name) return np.pattern;
    }
    throw std::runtime_error("missing");
  };
  const auto a = find('A');
  EXPECT_EQ(a.compute_nodes, 32);
  EXPECT_EQ(a.processes(), 1536);
  EXPECT_EQ(a.layout, FileLayout::FilePerProcess);
  EXPECT_EQ(a.request_size, 1024 * KiB);

  const auto d = find('D');
  EXPECT_EQ(d.compute_nodes, 16);
  EXPECT_EQ(d.processes(), 192);
  EXPECT_EQ(d.layout, FileLayout::SharedFile);
  EXPECT_EQ(d.spatiality, Spatiality::Strided1D);
  EXPECT_EQ(d.request_size, 128 * KiB);

  const auto h = find('H');
  EXPECT_EQ(h.compute_nodes, 8);
  EXPECT_EQ(h.processes(), 384);
  EXPECT_EQ(h.request_size, 4096 * KiB);
}

TEST(PatternTest, ToStringMentionsComponents) {
  AccessPattern p;
  p.compute_nodes = 4;
  p.processes_per_node = 8;
  p.layout = FileLayout::SharedFile;
  p.spatiality = Spatiality::Strided1D;
  p.request_size = 128 * KiB;
  p.total_bytes = GiB;
  const std::string s = p.to_string();
  EXPECT_NE(s.find("shared-file"), std::string::npos);
  EXPECT_NE(s.find("1d-strided"), std::string::npos);
  EXPECT_NE(s.find("128KiB"), std::string::npos);
}

// ------------------------------------------------------- Table 3 apps
TEST(Table3, HasNineApplications) {
  EXPECT_EQ(table3_applications().size(), 9u);
}

TEST(Table3, LabelsMatchPaper) {
  std::set<std::string> labels;
  for (const auto& a : table3_applications()) labels.insert(a.label);
  for (const char* expected :
       {"BT-C", "BT-D", "HACC", "IOR-MPI", "POSIX-S", "POSIX-L", "MAD",
        "SIM", "S3D"}) {
    EXPECT_TRUE(labels.count(expected)) << expected;
  }
}

TEST(Table3, GeometryMatchesPaper) {
  const auto btd = application("BT-D");
  EXPECT_EQ(btd.compute_nodes, 64);
  EXPECT_EQ(btd.processes, 512);
  const auto hacc = application("HACC");
  EXPECT_EQ(hacc.compute_nodes, 8);
  EXPECT_EQ(hacc.processes, 64);
  const auto sim = application("SIM");
  EXPECT_EQ(sim.compute_nodes, 16);
  EXPECT_EQ(sim.processes, 16);
}

TEST(Table3, VolumesApproximateTable3) {
  // Table 3 reports per-app write/read volumes in GB.
  auto gb = [](Bytes b) { return static_cast<double>(b) / 1e9; };
  EXPECT_NEAR(gb(application("BT-C").write_bytes()), 6.3, 0.2);
  EXPECT_NEAR(gb(application("BT-C").read_bytes()), 6.3, 0.2);
  EXPECT_NEAR(gb(application("BT-D").write_bytes()), 126.5, 0.5);
  EXPECT_NEAR(gb(application("HACC").write_bytes()), 1.8, 0.1);
  EXPECT_NEAR(gb(application("HACC").read_bytes()), 0.0, 1e-9);
  EXPECT_NEAR(gb(application("IOR-MPI").write_bytes()), 16.0, 0.1);
  EXPECT_NEAR(gb(application("POSIX-L").write_bytes()), 32.0, 0.1);
  EXPECT_NEAR(gb(application("MAD").write_bytes()), 16.2, 0.3);
  EXPECT_NEAR(gb(application("SIM").write_bytes()), 19.6, 0.3);
  EXPECT_NEAR(gb(application("S3D").write_bytes()), 33.7, 0.3);
  EXPECT_NEAR(gb(application("S3D").read_bytes()), 0.0, 1e-9);
}

TEST(Table3, HaccIsFilePerProcess) {
  const auto hacc = application("HACC");
  for (const auto& ph : hacc.phases) {
    EXPECT_EQ(ph.layout, FileLayout::FilePerProcess);
  }
}

TEST(Table3, S3dHasFiveCheckpointFiles) {
  const auto s3d = application("S3D");
  std::set<std::string> tags;
  for (const auto& ph : s3d.phases) tags.insert(ph.file_tag);
  EXPECT_EQ(tags.size(), 5u);  // "multiple shared files"
  for (const auto& ph : s3d.phases) EXPECT_TRUE(ph.flush_after);
}

TEST(Table3, SimWritesThroughMasterOnly) {
  const auto sim = application("SIM");
  for (const auto& ph : sim.phases) EXPECT_EQ(ph.writers, 1);
}

TEST(Table3, MadUsesWriterSubsets) {
  const auto mad = application("MAD");
  std::set<int> writers;
  for (const auto& ph : mad.phases) writers.insert(ph.writers);
  EXPECT_TRUE(writers.count(32));
  EXPECT_TRUE(writers.count(16));
}

TEST(Table3, UnknownLabelThrows) {
  EXPECT_THROW(application("NOPE"), std::out_of_range);
}

TEST(Table3, DominantPatternReflectsWritePhase) {
  const auto p = application("IOR-MPI").dominant_pattern();
  EXPECT_EQ(p.layout, FileLayout::SharedFile);
  EXPECT_EQ(p.operation, Operation::Write);
  EXPECT_EQ(p.request_size, 2 * MiB);
  EXPECT_EQ(p.compute_nodes, 16);
}

TEST(AppFromPattern, RoundTripsGeometry) {
  AccessPattern p;
  p.compute_nodes = 4;
  p.processes_per_node = 12;
  p.request_size = 256 * KiB;
  p.total_bytes = GiB;
  const auto app = app_from_pattern("X", p);
  EXPECT_EQ(app.compute_nodes, 4);
  EXPECT_EQ(app.processes, 48);
  ASSERT_EQ(app.phases.size(), 1u);
  EXPECT_EQ(app.phases[0].total_bytes, GiB);
}

TEST(Section52, SixAppsRequire272Nodes) {
  const auto apps = section52_applications();
  ASSERT_EQ(apps.size(), 6u);
  int total = 0;
  for (const auto& a : apps) total += a.compute_nodes;
  EXPECT_EQ(total, 272);  // Table 3 node counts
}

// --------------------------------------------------------- queue gen
TEST(QueueGen, DeterministicForSeed) {
  Rng a(42), b(42);
  const auto q1 = random_covering_queue(a, 20);
  const auto q2 = random_covering_queue(b, 20);
  ASSERT_EQ(q1.size(), q2.size());
  for (std::size_t i = 0; i < q1.size(); ++i) {
    EXPECT_EQ(q1[i].label, q2[i].label);
  }
}

TEST(QueueGen, CoveringQueueHasEveryApp) {
  Rng rng(7);
  const auto q = random_covering_queue(rng, 14);
  std::set<std::string> labels;
  for (const auto& a : q) labels.insert(a.label);
  EXPECT_EQ(labels.size(), 9u);
}

TEST(QueueGen, PaperQueueExactOrder) {
  const auto q = paper_queue();
  ASSERT_EQ(q.size(), 14u);
  EXPECT_EQ(q[0].label, "HACC");
  EXPECT_EQ(q[1].label, "IOR-MPI");
  EXPECT_EQ(q[2].label, "SIM");
  EXPECT_EQ(q[7].label, "BT-C");
  EXPECT_EQ(q[13].label, "BT-D");
}

}  // namespace
}  // namespace iofa::workload
