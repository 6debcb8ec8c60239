// Self-tests of the benchmark's own arithmetic (bench/stats.hpp and
// bench/spans.hpp): percentiles with sample counts, self time under
// overlapping children, the Eq. 2 sum on a hand-built mapping, and
// quantiles of telemetry registry deltas. Exits 1 on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/spans.hpp"
#include "bench/stats.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect_near(double got, double want, const std::string& what,
                 double tol = 1e-9) {
  if (std::fabs(got - want) > tol) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what.c_str(), got, want);
    ++failures;
  }
}

void test_percentile() {
  const auto q = percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.5);
  expect_near(q.value, 3.0, "median of 1..5");
  expect_near(static_cast<double>(q.count), 5.0, "median count");
  // Linear interpolation between ranks: 0.9 * (4 - 1) = 2.7 -> 3.7.
  expect_near(percentile({1.0, 2.0, 3.0, 4.0}, 0.9).value, 3.7, "p90 of 1..4");
  const auto empty = percentile({}, 0.5);
  expect_near(empty.value, 0.0, "empty value");
  expect_near(static_cast<double>(empty.count), 0.0, "empty count");
  // The reported tail keeps at least ten samples beyond it.
  expect_near(highest_tail_q(99), 0.0, "no tail under 100 samples");
  expect_near(highest_tail_q(100), 0.90, "p90 from 100 samples");
  expect_near(highest_tail_q(999), 0.90, "999 samples leave under ten beyond p99");
  expect_near(highest_tail_q(1000), 0.99, "p99 from 1000 samples");
  expect_near(highest_tail_q(10000), 0.999, "p99.9 from 10000 samples");
}

void test_self_time() {
  // Parent [0, 100); children [10, 30) and [20, 50) overlap -> 40 covered,
  // [90, 120) sticks out -> 10 covered, [95, 96) lies inside it.
  expect_near(self_time({0, 100}, {{10, 30}, {20, 50}, {90, 120}, {95, 96}}),
              50.0, "self time with overlapping children");
  expect_near(self_time({0, 100}, {}), 100.0, "no children");
  expect_near(self_time({0, 100}, {{0, 100}, {10, 20}}), 0.0,
              "fully covered");

  // The same through recorded spans: the root's self time excludes the
  // union of its direct children, not the grandchild.
  std::vector<SpanRecord> spans = {
      {"root", 1, 0, 7, 0.0, 100.0},
      {"a", 2, 1, 7, 10.0, 30.0},
      {"b", 3, 1, 7, 20.0, 50.0},
      {"grandchild", 4, 2, 7, 60.0, 99.0},
  };
  const auto self = self_times(spans, "root");
  expect_near(self.size() == 1 ? self[0] : -1.0, 60.0, "span self time");
  expect_near(durations(spans, "b").at(0), 30.0, "span duration");
}

void test_eq2() {
  using iofa::platform::BandwidthCurve;
  iofa::core::Mapping m;
  m.pool = 4;
  m.jobs[1] = {"a", {0, 1}, false};
  m.jobs[2] = {"b", {}, false};
  m.jobs[3] = {"c", {}, true};
  m.jobs[4] = {"d", {}, true};
  std::map<iofa::core::JobId, BandwidthCurve> curves;
  curves[1] = BandwidthCurve({{0, 100.0}, {1, 150.0}, {2, 400.0}});
  curves[2] = BandwidthCurve({{0, 50.0}, {1, 80.0}});
  curves[3] = BandwidthCurve({{0, 10.0}, {1, 30.0}});
  curves[4] = BandwidthCurve({{0, 10.0}, {1, 70.0}});
  // 400 (2 IONs) + 50 (direct) + (30 + 70) / 2 sharers.
  expect_near(eq2_sum(m, curves), 500.0, "Eq. 2 sum");
  curves.erase(2);
  expect_near(eq2_sum(m, curves), 450.0, "job without a curve adds nothing");
}

void test_registry_delta() {
  using namespace iofa::telemetry;
  Registry reg;
  auto& h0 = reg.histogram("lat", BucketSpec::latency_us(), {{"ion", "0"}});
  auto& h1 = reg.histogram("lat", BucketSpec::latency_us(), {{"ion", "1"}});
  auto& c0 = reg.counter("ops", {{"ion", "0"}});
  auto& c1 = reg.counter("ops", {{"ion", "1"}});
  // Warm-up: huge values that must not reach the delta.
  for (int i = 0; i < 50; ++i) h0.observe(1.0e6);
  c0.add(1000);
  const auto before = reg.snapshot();
  // Measured phase: 30 samples in [16, 32) on two label sets.
  for (int i = 0; i < 20; ++i) h0.observe(20.0);
  for (int i = 0; i < 10; ++i) h1.observe(20.0);
  c0.add(3);
  c1.add(4);
  const auto after = reg.snapshot();

  expect_near(counter_delta(before, after, "ops"), 7.0, "counter delta");
  const auto h = histogram_delta(before, after, "lat");
  expect_near(static_cast<double>(h.count), 30.0, "histogram delta count");
  // All 30 sit in bucket [16, 32): the median interpolates to its middle.
  const auto q = delta_quantile(before, after, "lat", 0.5);
  expect_near(q.value, 24.0, "delta median");
  expect_near(static_cast<double>(q.count), 30.0, "delta median count");
  const auto none = delta_quantile(before, after, "missing", 0.5);
  expect_near(static_cast<double>(none.count), 0.0, "missing histogram");
  expect_near(ratio(1.0, 0.0), 0.0, "ratio over a bypassed layer");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_eq2();
  test_registry_delta();
  if (failures) {
    std::printf("%d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
