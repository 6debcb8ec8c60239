#pragma once
// The benchmark's own arithmetic: percentiles with their sample counts,
// span self time, the Eq. 2 predicted-bandwidth sum and quantiles of
// telemetry registry deltas. Header-only so the self-tests exercise
// exactly what the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/arbiter.hpp"
#include "platform/profile.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

/// A percentile together with the number of samples it was taken over.
struct Quantile {
  double value = 0.0;
  std::size_t count = 0;
};

/// Linear-interpolated percentile (q in [0, 1]) of `samples`; value 0
/// with count 0 for an empty sample.
inline Quantile percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  return out;
}

/// The highest of p90 / p99 / p99.9 that still has at least ten
/// samples beyond it; 0 when not even p90 does.
inline double highest_tail_q(std::size_t count) {
  double best = 0.0;
  for (const double q : {0.90, 0.99, 0.999}) {
    if (static_cast<double>(count) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

/// Half-open time interval [begin, end) in any unit.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// A span's self time: its duration minus the part of its interval that
/// the union of its children covers (children may overlap each other
/// and may stick out of the parent; only the covered part counts).
inline double self_time(Interval parent, std::vector<Interval> children) {
  for (auto& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double run_begin = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& c : children) {
    if (c.end <= c.begin) continue;
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return (parent.end - parent.begin) - covered;
}

/// Equation 2: the predicted aggregate bandwidth (MB/s) of a mapping,
/// the sum over mapped jobs of each job's curve at its ION count. Jobs
/// on the system-wide shared ION get bw(1) divided among the sharers
/// (Section 3.1). Jobs without a curve in `curves` contribute nothing.
inline double eq2_sum(
    const iofa::core::Mapping& mapping,
    const std::map<iofa::core::JobId, iofa::platform::BandwidthCurve>&
        curves) {
  int sharers = 0;
  for (const auto& [id, e] : mapping.jobs) sharers += e.shared ? 1 : 0;
  double sum = 0.0;
  for (const auto& [id, e] : mapping.jobs) {
    const auto it = curves.find(id);
    if (it == curves.end()) continue;
    if (e.shared) {
      sum += it->second.at(1) / sharers;
    } else {
      sum += it->second.at(static_cast<int>(e.ions.size()));
    }
  }
  return sum;
}

/// Sum of every instance (all label sets) of a counter in a snapshot.
inline double counter_total(const iofa::telemetry::Snapshot& snap,
                            const std::string& name) {
  double total = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name == name && s.kind == iofa::telemetry::MetricKind::Counter) {
      total += s.value;
    }
  }
  return total;
}

inline double counter_delta(const iofa::telemetry::Snapshot& before,
                            const iofa::telemetry::Snapshot& after,
                            const std::string& name) {
  return counter_total(after, name) - counter_total(before, name);
}

/// All instances of a histogram merged bucket-wise; an empty snapshot
/// (no buckets) when the registry has none.
inline iofa::telemetry::HistogramSnapshot histogram_total(
    const iofa::telemetry::Snapshot& snap, const std::string& name) {
  iofa::telemetry::HistogramSnapshot out;
  for (const auto& s : snap.samples) {
    if (s.name != name || !s.histogram) continue;
    const auto& h = *s.histogram;
    if (out.buckets.empty()) {
      out.spec = h.spec;
      out.buckets.assign(h.buckets.size(), 0);
    }
    for (std::size_t b = 0; b < h.buckets.size() && b < out.buckets.size();
         ++b) {
      out.buckets[b] += h.buckets[b];
    }
    out.count += h.count;
    out.sum += h.sum;
  }
  return out;
}

/// The histogram of what was observed between two snapshots (all label
/// sets merged), so warm-up before `before` is excluded.
inline iofa::telemetry::HistogramSnapshot histogram_delta(
    const iofa::telemetry::Snapshot& before,
    const iofa::telemetry::Snapshot& after, const std::string& name) {
  auto out = histogram_total(after, name);
  const auto base = histogram_total(before, name);
  for (std::size_t b = 0; b < base.buckets.size() && b < out.buckets.size();
       ++b) {
    out.buckets[b] -= base.buckets[b];
  }
  out.count -= base.count;
  out.sum -= base.sum;
  return out;
}

/// Quantile of a registry delta with its sample count (0, 0 when empty).
inline Quantile delta_quantile(const iofa::telemetry::Snapshot& before,
                               const iofa::telemetry::Snapshot& after,
                               const std::string& name, double q) {
  const auto h = histogram_delta(before, after, name);
  Quantile out;
  out.count = h.count;
  if (h.count > 0) out.value = h.quantile(q);
  return out;
}

/// a / b, or 0 when b is 0 (a ratio over a layer the workload bypasses).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace perfbench
