#pragma once
// Multiple-Choice Knapsack solvers.
//
// The allocation problem of Section 3: classes are applications, the
// items of a class are the feasible ION counts for that application
// (weight = number of IONs, value = predicted bandwidth), the knapsack
// capacity is the forwarding pool size. Exactly one item is chosen per
// class to maximise total value under the capacity.
//
// Solvers:
//   solve_mckp_dp          - exact pseudo-polynomial dynamic program,
//                            O(W * sum_i N_i) as in the paper;
//   IncrementalMckp        - the same exact optimum, kept warm across
//                            class edits in a max-plus tree;
//   solve_mckp_greedy      - dominance-filtered incremental-efficiency
//                            heuristic (ablation baseline);
//   solve_mckp_bruteforce  - exhaustive reference for property tests.
//
// The two exact solvers add item values as int64 fixed point with
// kMckpFracBits fractional bits (resolution 2^-32 MB/s), so sums are
// exact and associative: any summation order finds the same optimum.
// Finite values are clamped to +-kMckpMaxValue MB/s; -inf (and NaN) is
// an absorbing "never unless forced" value below every finite sum.
// With up to kMckpMaxClasses classes no sum can overflow (2^14 classes
// * 2^16 MB/s * 2^32 = 2^62). Both return one canonical optimum:
//   1. maximise the fixed-point value;
//   2. then minimise the total weight;
//   3. then take the reverse-lexicographically smallest item-index
//      vector: the last class takes its lowest-index optimal item
//      first, then the class before it, and so on.
// MckpSolution::value is the double sum of the chosen items' values in
// class order, so the two exact solvers agree on it bit for bit.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace iofa::core {

struct MckpItem {
  int weight = 0;     ///< IONs consumed
  double value = 0.0; ///< predicted bandwidth (MB/s)
};

using MckpClass = std::vector<MckpItem>;

struct MckpSolution {
  std::vector<std::size_t> choice;  ///< item index per class
  double value = 0.0;
  int weight = 0;
};

/// Fixed-point scale of the exact solvers (see the file comment).
inline constexpr int kMckpFracBits = 32;
/// Finite item values are clamped to +-this many MB/s.
inline constexpr double kMckpMaxValue = 65536.0;
/// Class count up to which no fixed-point sum can overflow.
inline constexpr std::size_t kMckpMaxClasses = 16384;

/// Exact DP. Returns nullopt when no feasible selection exists (i.e. the
/// minimum-weight items already exceed the capacity). Classes must be
/// non-empty; capacity >= 0.
std::optional<MckpSolution> solve_mckp_dp(
    const std::vector<MckpClass>& classes, int capacity);

/// Greedy on the per-class convex hull of (weight, value): start from the
/// minimum-weight item of each class, then repeatedly apply the upgrade
/// with the best marginal value per ION that still fits. Feasible whenever
/// the DP is; not always optimal.
std::optional<MckpSolution> solve_mckp_greedy(
    const std::vector<MckpClass>& classes, int capacity);

/// Exhaustive search; only for small instances (tests).
std::optional<MckpSolution> solve_mckp_bruteforce(
    const std::vector<MckpClass>& classes, int capacity);

/// Warm-start MCKP: a max-plus tree over the classes, so a single-class
/// delta (job added, finished or re-profiled) costs O(log n) node
/// merges instead of a DP pass.
///
/// The tree is a treap in ascending caller-key order (the Arbiter uses
/// the JobId) whose priorities hash the key, so its shape depends only
/// on the key set. Each node covers its subtree's classes in key order
/// and holds, for every exact weight 0..max_weight, the best fixed-point
/// value of that subtree, the argmax split (the right subtree's weight
/// and the node's own item) and the rank of its optimal item vector in
/// reverse-lexicographic order. Merges break value ties by the right
/// subtree's rank, then the node's item index, then the left subtree's
/// rank - the canonical tie-break of the file comment, so every solve
/// is value- and choice-identical to solve_mckp_dp over the same
/// classes.
///
/// The tree is sized once for a maximum weight - the physical pool.
/// Capacity is a query on the root: solve(C) scans the root's weights
/// 0..C, which is all an ION failure or recovery costs. Items heavier
/// than max_weight are never reachable, exactly as a capacity-C DP
/// skips items heavier than C. An empty class has no reachable weight,
/// so every subtree holding it is infeasible.
class IncrementalMckp {
 public:
  /// Drop all classes and size the table for weights 0..max_weight.
  void reset(int max_weight);

  /// Bulk load; every node is merged once.
  void assign(int max_weight,
              std::vector<std::pair<std::uint64_t, MckpClass>> classes);

  /// Insert or replace one class; re-merges the nodes on its path.
  void upsert(std::uint64_t key, MckpClass cls);

  /// Remove one class; returns false when the key is absent.
  bool erase(std::uint64_t key);

  /// Query the root at any capacity in [0, max_weight] (larger
  /// capacities are clamped). Value- and choice-identical to
  /// solve_mckp_dp over the same classes in key order; choices are
  /// indices into those classes, in key order.
  std::optional<MckpSolution> solve(int capacity) const;

  /// The same solve, reporting as (key, weight), in key order, only the
  /// classes whose chosen weight (the Arbiter's ION count) moved since
  /// the last such walk, and every class new since. The walk descends
  /// only into nodes merged since or reached at another weight. After
  /// an infeasible call (false, changes empty) the next reports all.
  bool solve_changes(int capacity,
                     std::vector<std::pair<std::uint64_t, int>>& changes);

  int max_weight() const { return max_weight_; }
  std::size_t size() const { return nodes_.size() - free_.size(); }

  /// Cumulative node merges since construction - the work measure the
  /// tests pin the O(log n) update cost against.
  std::uint64_t nodes_merged() const { return nodes_merged_; }
  /// Cumulative nodes solve_changes walks descended into.
  std::uint64_t nodes_walked() const { return nodes_walked_; }

 private:
  /// A class's best item at one exact weight (lowest index among equal
  /// values), in fixed point.
  struct LeafItem {
    int weight = 0;
    std::int64_t value = 0;
    std::uint16_t index = 0;
  };
  static constexpr std::uint16_t kUnwalked = 0xFFFF;
  struct Node {
    std::uint64_t key = 0;
    std::uint64_t prio = 0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint16_t reach = 0;  ///< reachable weights (entries of order_)
    // The last solve_changes walk: the subtree's weight and the own
    // item's (kUnwalked: new since), and whether merge_node ran since.
    std::uint16_t walk_w = kUnwalked;
    std::uint16_t own_w = kUnwalked;
    bool merged = false;
    bool dirty = true;        ///< tables stale; so are all its ancestors'
  };
  /// A node's class, kept apart from the nodes a walk touches.
  struct Leaf {
    MckpClass cls;
    std::vector<LeafItem> items;  ///< ascending index
  };

  /// Insert, replace or (cls empty) erase one class, dirtying the
  /// nodes whose tables change; refresh() then re-merges them.
  bool edit(std::uint64_t key, std::optional<MckpClass> cls);
  std::int32_t make_node(std::uint64_t key, MckpClass cls);
  void set_class(std::int32_t t, MckpClass cls);
  bool above(std::int32_t a, std::int32_t b) const;
  void split(std::int32_t t, std::uint64_t key, std::int32_t& l,
             std::int32_t& r);
  std::int32_t join(std::int32_t l, std::int32_t r);
  std::int32_t insert(std::int32_t t, std::int32_t n);
  std::int32_t erase_at(std::int32_t t, std::uint64_t key, bool& found);
  void refresh(std::int32_t t);
  void merge_node(std::int32_t t);
  /// The root's best weight <= capacity; nullopt when infeasible.
  std::optional<std::size_t> best_weight(int capacity) const;
  /// In-order backtrack from node t at weight w: visit(node, item
  /// index, item weight) once per class, in key order.
  template <typename Visit>
  void walk(std::int32_t t, std::size_t w, const Visit& visit) const;

  std::size_t dim() const { return static_cast<std::size_t>(max_weight_) + 1; }

  int max_weight_ = 0;
  std::int32_t root_ = -1;
  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;  ///< parallel to nodes_
  std::vector<std::int32_t> free_;
  // Per-node tables, dim() entries per node slot. value_ holds
  // kUnreachable at weights the subtree cannot sum to exactly.
  std::vector<std::int64_t> value_;
  std::vector<std::uint16_t> rank_;     ///< reverse-lex rank per weight
  std::vector<std::uint16_t> order_;    ///< reachable weights by rank
  /// Argmax per weight: the right subtree's weight, the own item's
  /// weight << 16 and its index << 32.
  std::vector<std::uint64_t> split_;
  // Merge scratch: the left subtree joined with the node's own class.
  std::vector<std::int64_t> mid_value_;
  std::vector<std::uint32_t> mid_key_;
  std::vector<std::uint16_t> mid_reach_;
  std::vector<std::uint64_t> sort_key_;
  std::uint64_t nodes_merged_ = 0;
  std::uint64_t nodes_walked_ = 0;
};

}  // namespace iofa::core
