// Tests for the Darshan-like trace substrate and the pattern classifier.

#include <gtest/gtest.h>

#include <thread>

#include "platform/perf_model.hpp"
#include "platform/profile.hpp"
#include "trace/analyzer.hpp"
#include "trace/record.hpp"

namespace iofa::trace {
namespace {

using workload::FileLayout;
using workload::Operation;
using workload::Spatiality;

RequestRecord rec(std::uint32_t rank, std::uint64_t file, OpKind op,
                  std::uint64_t offset, std::uint64_t size) {
  RequestRecord r;
  r.rank = rank;
  r.file_id = file;
  r.op = op;
  r.offset = offset;
  r.size = size;
  return r;
}

// -------------------------------------------------------------- TraceLog
TEST(TraceLog, CountsBytesByOperation) {
  TraceLog log("job");
  log.append(rec(0, 1, OpKind::Write, 0, 100));
  log.append(rec(0, 1, OpKind::Write, 100, 100));
  log.append(rec(0, 1, OpKind::Read, 0, 50));
  EXPECT_EQ(log.bytes_written(), 200u);
  EXPECT_EQ(log.bytes_read(), 50u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.job_label(), "job");
}

TEST(TraceLog, SnapshotPreservesOrder) {
  TraceLog log;
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.append(rec(0, 1, OpKind::Write, i * 100, 100));
  }
  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(snap[i].offset, i * 100);
  }
}

TEST(TraceLog, ThreadSafeAppend) {
  TraceLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        log.append(rec(static_cast<std::uint32_t>(t), 1, OpKind::Write, 0,
                       10));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.size(), 800u);
  EXPECT_EQ(log.bytes_written(), 8000u);
}

TEST(HashPath, StableAndDistinct) {
  EXPECT_EQ(hash_path("/a/b"), hash_path("/a/b"));
  EXPECT_NE(hash_path("/a/b"), hash_path("/a/c"));
}

// ------------------------------------------------------------ classifier
TEST(Classify, EmptyTraceIsNullopt) {
  EXPECT_FALSE(classify({}, 4, 16).has_value());
}

TEST(Classify, OpenCloseOnlyIsNullopt) {
  std::vector<RequestRecord> t{rec(0, 1, OpKind::Open, 0, 0),
                               rec(0, 1, OpKind::Close, 0, 0)};
  EXPECT_FALSE(classify(t, 4, 16).has_value());
}

TEST(Classify, SharedContiguousWrite) {
  // 4 ranks, one file, each writing its own contiguous segment.
  std::vector<RequestRecord> t;
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      t.push_back(rec(r, 99, OpKind::Write, r * 8000 + i * 1000, 1000));
    }
  }
  const auto est = classify(t, 2, 4);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->pattern.layout, FileLayout::SharedFile);
  EXPECT_EQ(est->pattern.spatiality, Spatiality::Contiguous);
  EXPECT_EQ(est->pattern.operation, Operation::Write);
  EXPECT_EQ(est->pattern.request_size, 1000u);
  EXPECT_GT(est->spatiality_confidence, 0.9);
}

TEST(Classify, SharedStridedWrite) {
  // 4 ranks interleaving blocks: rank r writes offsets (i*4 + r) * 1000.
  std::vector<RequestRecord> t;
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      t.push_back(rec(r, 99, OpKind::Write, (i * 4 + r) * 1000, 1000));
    }
  }
  const auto est = classify(t, 2, 4);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->pattern.spatiality, Spatiality::Strided1D);
  EXPECT_GT(est->spatiality_confidence, 0.9);
}

TEST(Classify, FilePerProcessDetected) {
  std::vector<RequestRecord> t;
  for (std::uint32_t r = 0; r < 8; ++r) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      t.push_back(rec(r, 1000 + r, OpKind::Write, i * 4096, 4096));
    }
  }
  const auto est = classify(t, 2, 8);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->pattern.layout, FileLayout::FilePerProcess);
  EXPECT_EQ(est->pattern.spatiality, Spatiality::Contiguous);
}

TEST(Classify, ReadDominantOperation) {
  std::vector<RequestRecord> t;
  t.push_back(rec(0, 1, OpKind::Write, 0, 100));
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.push_back(rec(0, 1, OpKind::Read, i * 1000, 1000));
  }
  const auto est = classify(t, 1, 1);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->pattern.operation, Operation::Read);
  EXPECT_EQ(est->write_bytes, 100u);
  EXPECT_EQ(est->read_bytes, 10000u);
}

TEST(Classify, RequestSizeIsMode) {
  std::vector<RequestRecord> t;
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.push_back(rec(0, 1, OpKind::Write, i * 4096, 4096));
  }
  t.push_back(rec(0, 1, OpKind::Write, 100 * 4096, 123));
  const auto est = classify(t, 1, 1);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->pattern.request_size, 4096u);
}

TEST(Classify, GeometryPassedThrough) {
  std::vector<RequestRecord> t{rec(0, 1, OpKind::Write, 0, 100)};
  const auto est = classify(t, 4, 48);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->pattern.compute_nodes, 4);
  EXPECT_EQ(est->pattern.processes(), 48);
}

// -------------------------------------------------------- estimate_curve
TEST(EstimateCurve, ProducesUsableCurve) {
  std::vector<RequestRecord> t;
  for (std::uint32_t r = 0; r < 16; ++r) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      t.push_back(rec(r, 99, OpKind::Write, (i * 16 + r) * 65536, 65536));
    }
  }
  platform::PerfModel model(platform::mn4_params());
  const auto curve =
      estimate_curve(t, 2, 16, model, platform::default_ion_options());
  EXPECT_EQ(curve.options().size(), 5u);
  for (int k : curve.options()) EXPECT_GT(curve.at(k), 0.0);
}

TEST(EstimateCurve, EmptyTraceGivesZeroCurve) {
  platform::PerfModel model(platform::mn4_params());
  const auto curve =
      estimate_curve({}, 2, 16, model, platform::default_ion_options());
  for (int k : curve.options()) EXPECT_DOUBLE_EQ(curve.at(k), 0.0);
}

TEST(EstimateCurve, MatchesDirectModelEvaluation) {
  // A clean trace of a known pattern should estimate the same curve the
  // model produces for that pattern.
  workload::AccessPattern p;
  p.compute_nodes = 2;
  p.processes_per_node = 8;
  p.layout = FileLayout::SharedFile;
  p.spatiality = Spatiality::Contiguous;
  p.request_size = 65536;

  std::vector<RequestRecord> t;
  for (std::uint32_t r = 0; r < 16; ++r) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      t.push_back(
          rec(r, 99, OpKind::Write, (r * 8 + i) * 65536, 65536));
    }
  }
  p.total_bytes = 16 * 8 * 65536;

  platform::PerfModel model(platform::mn4_params());
  const auto estimated =
      estimate_curve(t, 2, 16, model, platform::default_ion_options());
  const auto direct =
      platform::curve_from_model(model, p, platform::default_ion_options());
  for (int k : direct.options()) {
    EXPECT_NEAR(estimated.at(k), direct.at(k), direct.at(k) * 0.01) << k;
  }
}

}  // namespace
}  // namespace iofa::trace
