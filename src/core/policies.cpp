#include "core/policies.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/mckp.hpp"

namespace iofa::core {

int AllocationProblem::total_compute_nodes() const {
  int total = 0;
  for (const auto& a : apps) total += a.compute_nodes;
  return total;
}

int AllocationProblem::total_processes() const {
  int total = 0;
  for (const auto& a : apps) total += a.processes;
  return total;
}

MBps Allocation::aggregate_bw(const AllocationProblem& problem) const {
  assert(ions.size() == problem.apps.size());
  std::size_t n_shared = 0;
  for (std::size_t i = 0; i < shared.size(); ++i) {
    if (shared[i]) ++n_shared;
  }
  MBps total = 0.0;
  for (std::size_t i = 0; i < ions.size(); ++i) {
    const auto& curve = problem.apps[i].curve;
    if (i < shared.size() && shared[i]) {
      // Naive shared-ION estimate of Section 3.1: the single-node
      // bandwidth divided by the number of applications sharing it.
      total += curve.at(1) / static_cast<double>(n_shared);
    } else {
      total += curve.at(ions[i]);
    }
  }
  return total;
}

int Allocation::total_ions() const {
  int total = 0;
  bool any_shared = false;
  for (std::size_t i = 0; i < ions.size(); ++i) {
    if (i < shared.size() && shared[i]) {
      any_shared = true;
    } else {
      total += ions[i];
    }
  }
  return total + (any_shared ? 1 : 0);
}

namespace {

/// Downgrade allocations (largest first) until the pool fits. Returns
/// false when no further downgrade is possible and the total still
/// exceeds the pool.
bool repair_overflow(const AllocationProblem& problem,
                     std::vector<int>& ions) {
  auto total = [&] {
    int t = 0;
    for (int n : ions) t += n;
    return t;
  };
  while (total() > problem.pool) {
    std::size_t victim = ions.size();
    for (std::size_t i = 0; i < ions.size(); ++i) {
      const auto& opts = problem.apps[i].curve.options();
      const bool can_lower = ions[i] > opts.front();
      if (!can_lower) continue;
      if (victim == ions.size() || ions[i] > ions[victim]) victim = i;
    }
    if (victim == ions.size()) return false;
    const auto& opts = problem.apps[victim].curve.options();
    // Next lower feasible option.
    int lower = opts.front();
    for (int opt : opts) {
      if (opt < ions[victim]) lower = opt;
    }
    ions[victim] = lower;
  }
  return true;
}

}  // namespace

Allocation ZeroPolicy::allocate(const AllocationProblem& problem) const {
  Allocation a;
  a.ions.reserve(problem.apps.size());
  for (const auto& app : problem.apps) {
    a.ions.push_back(app.curve.snap_option(0));
  }
  a.respects_pool = a.total_ions() <= problem.pool || a.total_ions() == 0;
  return a;
}

Allocation OnePolicy::allocate(const AllocationProblem& problem) const {
  Allocation a;
  a.ions.reserve(problem.apps.size());
  for (const auto& app : problem.apps) {
    int pick = app.curve.snap_option(1);
    if (pick == 0 && app.curve.options().size() > 1) {
      // No 1-ION option below: take the smallest positive one.
      for (int opt : app.curve.options()) {
        if (opt > 0) {
          pick = opt;
          break;
        }
      }
    }
    a.ions.push_back(pick);
  }
  a.respects_pool = a.total_ions() <= problem.pool;
  return a;
}

Allocation StaticPolicy::allocate(const AllocationProblem& problem) const {
  Allocation a;
  const double ratio =
      problem.static_ratio.has_value()
          ? *problem.static_ratio
          : static_cast<double>(problem.total_compute_nodes()) /
                std::max(1, problem.pool);
  a.ions.reserve(problem.apps.size());
  for (const auto& app : problem.apps) {
    const int want = static_cast<int>(
        std::ceil(static_cast<double>(app.compute_nodes) /
                  std::max(ratio, 1e-9)));
    // STATIC always forwards: at least one ION even for tiny jobs.
    int snapped = app.curve.snap_option(std::max(1, want));
    if (snapped == 0) {
      for (int opt : app.curve.options()) {
        if (opt > 0) {
          snapped = opt;
          break;
        }
      }
    }
    a.ions.push_back(snapped);
  }
  a.respects_pool = repair_overflow(problem, a.ions);
  return a;
}

namespace {

Allocation proportional_allocate(const AllocationProblem& problem,
                                 bool by_processes) {
  Allocation a;
  double total = 0.0;
  for (const auto& app : problem.apps) {
    total += by_processes ? app.processes : app.compute_nodes;
  }
  total = std::max(total, 1.0);
  a.ions.reserve(problem.apps.size());
  for (const auto& app : problem.apps) {
    const double size =
        by_processes ? app.processes : app.compute_nodes;
    const double share = problem.pool * size / total;
    const int want = static_cast<int>(std::lround(share));
    a.ions.push_back(app.curve.snap_option(want));
  }
  a.respects_pool = repair_overflow(problem, a.ions);
  return a;
}

}  // namespace

Allocation SizePolicy::allocate(const AllocationProblem& problem) const {
  return proportional_allocate(problem, /*by_processes=*/false);
}

Allocation ProcessPolicy::allocate(const AllocationProblem& problem) const {
  return proportional_allocate(problem, /*by_processes=*/true);
}

Allocation OraclePolicy::allocate(const AllocationProblem& problem) const {
  Allocation a;
  a.ions.reserve(problem.apps.size());
  for (const auto& app : problem.apps) {
    a.ions.push_back(app.curve.best_option());
  }
  a.respects_pool = a.total_ions() <= problem.pool;
  return a;
}

Allocation MckpPolicy::allocate(const AllocationProblem& problem) const {
  Allocation a;
  a.ions.assign(problem.apps.size(), 0);

  auto build_classes = [&](int capacity) {
    std::vector<MckpClass> classes;
    classes.reserve(problem.apps.size());
    for (const auto& app : problem.apps) {
      MckpClass cls;
      for (int opt : app.curve.options()) {
        if (opt > capacity) continue;
        cls.push_back(MckpItem{opt, app.curve.at(opt)});
      }
      classes.push_back(std::move(cls));
    }
    return classes;
  };

  auto solve = [&](const std::vector<MckpClass>& classes, int capacity) {
    return opts_.greedy ? solve_mckp_greedy(classes, capacity)
                        : solve_mckp_dp(classes, capacity);
  };

  auto classes = build_classes(problem.pool);
  auto sol = solve(classes, problem.pool);
  if (sol) {
    for (std::size_t i = 0; i < problem.apps.size(); ++i) {
      a.ions[i] = classes[i][sol->choice[i]].weight;
    }
    a.respects_pool = true;
    return a;
  }

  if (problem.pool < 1) {
    a.respects_pool = false;
    return a;
  }

  // Shared fallback (Section 3.1): one ION is reserved as a system-wide
  // shared node; each application gains a zero-weight "shared" item whose
  // value is the naive bw(1) / A estimate. MCKP arbitrates the remaining
  // pool - 1 nodes.
  const int capacity = problem.pool - 1;
  const double A = static_cast<double>(problem.apps.size());
  classes = build_classes(capacity);
  std::vector<std::size_t> shared_index(problem.apps.size());
  for (std::size_t i = 0; i < problem.apps.size(); ++i) {
    const auto& curve = problem.apps[i].curve;
    const double shared_bw =
        curve.has_option(1) ? curve.at(1) / A : curve.best_bandwidth() / A;
    shared_index[i] = classes[i].size();
    classes[i].push_back(MckpItem{0, shared_bw});
  }
  sol = solve(classes, capacity);
  if (!sol) {
    a.respects_pool = false;
    return a;
  }
  a.shared.assign(problem.apps.size(), 0);
  for (std::size_t i = 0; i < problem.apps.size(); ++i) {
    if (sol->choice[i] == shared_index[i]) {
      a.shared[i] = 1;
      a.ions[i] = 0;
    } else {
      a.ions[i] = classes[i][sol->choice[i]].weight;
    }
  }
  a.respects_pool = true;
  return a;
}

std::vector<std::unique_ptr<ArbitrationPolicy>> standard_policies() {
  std::vector<std::unique_ptr<ArbitrationPolicy>> out;
  out.push_back(std::make_unique<ZeroPolicy>());
  out.push_back(std::make_unique<OnePolicy>());
  out.push_back(std::make_unique<StaticPolicy>());
  out.push_back(std::make_unique<SizePolicy>());
  out.push_back(std::make_unique<ProcessPolicy>());
  out.push_back(std::make_unique<MckpPolicy>());
  out.push_back(std::make_unique<OraclePolicy>());
  return out;
}

}  // namespace iofa::core
