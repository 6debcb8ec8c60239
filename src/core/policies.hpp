#pragma once
// The I/O-node arbitration policies of the paper (Section 3):
// ZERO, ONE, STATIC, SIZE, PROCESS, ORACLE and the proposed MCKP policy.
//
// All policies consume an AllocationProblem - the set of running (or
// about-to-run) applications with their bandwidth-vs-ION curves and the
// size of the forwarding pool - and produce an Allocation: the ION count
// for each application.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "platform/profile.hpp"

namespace iofa::core {

/// One application in the allocation problem.
struct AppEntry {
  std::string label;
  int compute_nodes = 1;
  int processes = 1;
  platform::BandwidthCurve curve;  ///< bandwidth over feasible ION options
};

struct AllocationProblem {
  std::vector<AppEntry> apps;
  int pool = 0;  ///< forwarding nodes available to arbitrate

  /// STATIC deployment ratio (compute nodes per ION). When unset, STATIC
  /// derives it from the apps' total compute nodes and the pool, i.e. the
  /// pool is assumed to be the system's full forwarding layer.
  std::optional<double> static_ratio;

  int total_compute_nodes() const;
  int total_processes() const;
};

struct Allocation {
  std::vector<int> ions;  ///< per app, parallel to problem.apps
  /// Optional parallel flags: app i uses the system-wide shared ION
  /// (Section 3.1 fallback). Empty when no app shares.
  std::vector<char> shared;
  bool respects_pool = true;

  /// Aggregate predicted bandwidth (Equation 2 numerator over curves).
  MBps aggregate_bw(const AllocationProblem& problem) const;
  int total_ions() const;
};

class ArbitrationPolicy {
 public:
  virtual ~ArbitrationPolicy() = default;
  virtual std::string name() const = 0;
  virtual Allocation allocate(const AllocationProblem& problem) const = 0;
  /// True when allocate()'s primary decision is an exact MCKP DP over
  /// the app curves, letting the Arbiter keep a warm-start DP table
  /// (core/mckp.hpp IncrementalMckp) and re-solve incrementally with
  /// results identical to a from-scratch allocate().
  virtual bool supports_warm_start() const { return false; }
};

/// Every application accesses the PFS directly (0 IONs). Requires the
/// direct option in every curve.
class ZeroPolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "ZERO"; }
  Allocation allocate(const AllocationProblem& problem) const override;
};

/// Every application gets exactly one non-shared ION.
class OnePolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "ONE"; }
  Allocation allocate(const AllocationProblem& problem) const override;
};

/// ceil(Ca / R) IONs per application, R = compute nodes per ION at
/// deployment. Snapped down to feasible options; allocations are
/// downgraded largest-first if the pool is exceeded.
class StaticPolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "STATIC"; }
  Allocation allocate(const AllocationProblem& problem) const override;
};

/// round(F * Ca / sum(C)) - proportional to application node counts;
/// uses the whole pool even when the machine is not full.
class SizePolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "SIZE"; }
  Allocation allocate(const AllocationProblem& problem) const override;
};

/// round(F * Pa / sum(P)) - proportional to application process counts.
class ProcessPolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "PROCESS"; }
  Allocation allocate(const AllocationProblem& problem) const override;
};

/// Fictitious upper bound: every application gets its best option,
/// ignoring the pool limit (respects_pool = false when exceeded).
class OraclePolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "ORACLE"; }
  Allocation allocate(const AllocationProblem& problem) const override;
};

/// The proposed policy: solve the Multiple-Choice Knapsack over the
/// applications' curves with the pool as capacity.
class MckpPolicy final : public ArbitrationPolicy {
 public:
  /// When the minimum-weight choices already exceed the pool, allocate()
  /// reserves one ION as a system-wide shared node and gives every
  /// application an extra "shared" item valued bw(1)/A (Section 3.1).
  struct Options {
    /// Use the greedy solver instead of the exact DP (ablation).
    bool greedy = false;
  };

  MckpPolicy() = default;
  explicit MckpPolicy(Options opts) : opts_(opts) {}

  std::string name() const override {
    return opts_.greedy ? "MCKP-GREEDY" : "MCKP";
  }
  Allocation allocate(const AllocationProblem& problem) const override;
  /// Only the exact DP is warm-startable; the greedy ablation is not
  /// reproduced by the incremental table.
  bool supports_warm_start() const override { return !opts_.greedy; }

 private:
  Options opts_;
};

/// All standard policies, in the order the paper's figures use.
std::vector<std::unique_ptr<ArbitrationPolicy>> standard_policies();

}  // namespace iofa::core
