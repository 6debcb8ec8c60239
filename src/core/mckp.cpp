#include "core/mckp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/rng.hpp"

namespace iofa::core {

namespace {

using Fixed = std::int64_t;
/// Marks a weight no selection sums to exactly; below every value.
constexpr Fixed kUnreachable = std::numeric_limits<Fixed>::min();
/// A -inf item value: absorbing, and below every finite sum.
constexpr Fixed kNegInf = kUnreachable + 1;

Fixed to_fixed(double v) {
  if (std::isnan(v) || v == -std::numeric_limits<double>::infinity()) {
    return kNegInf;
  }
  const double clamped = std::clamp(v, -kMckpMaxValue, kMckpMaxValue);
  return static_cast<Fixed>(std::llround(std::ldexp(clamped, kMckpFracBits)));
}

Fixed add(Fixed a, Fixed b) {
  return a == kNegInf || b == kNegInf ? kNegInf : a + b;
}

}  // namespace

std::optional<MckpSolution> solve_mckp_dp(
    const std::vector<MckpClass>& classes, int capacity) {
  assert(capacity >= 0);
  const std::size_t k = classes.size();
  const std::size_t w_dim = static_cast<std::size_t>(capacity) + 1;

  if (k == 0) return MckpSolution{{}, 0.0, 0};
  for (const auto& cls : classes) {
    if (cls.empty()) return std::nullopt;
  }

  // dp[w]: best fixed-point value after the classes so far with total
  // weight exactly w, kUnreachable where no selection sums to w.
  std::vector<Fixed> dp(w_dim, kUnreachable);
  std::vector<Fixed> next(w_dim);
  // choice[i * w_dim + w]: item picked for class i at state weight w.
  std::vector<std::uint16_t> choice(k * w_dim, 0);

  // Non-zero weights start unreachable so each class contributes exactly
  // one item.
  dp[0] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    std::fill(next.begin(), next.end(), kUnreachable);
    const auto& cls = classes[i];
    std::uint16_t* pick = &choice[i * w_dim];
    for (std::size_t j = 0; j < cls.size(); ++j) {
      const int w = cls[j].weight;
      if (w < 0 || w > capacity) continue;
      const Fixed v = to_fixed(cls[j].value);
      for (std::size_t prev_w = 0; prev_w + static_cast<std::size_t>(w) <
                                   w_dim;
           ++prev_w) {
        if (dp[prev_w] == kUnreachable) continue;
        const std::size_t new_w = prev_w + static_cast<std::size_t>(w);
        const Fixed cand = add(dp[prev_w], v);
        // Strict > keeps the lowest item index on a tie, so the
        // backtrack below yields the canonical reverse-lex vector.
        if (cand > next[new_w]) {
          next[new_w] = cand;
          pick[new_w] = static_cast<std::uint16_t>(j);
        }
      }
    }
    dp.swap(next);
  }

  // Best final state, lowest weight first on a value tie.
  std::size_t best_w = 0;
  for (std::size_t w = 1; w < w_dim; ++w) {
    if (dp[w] > dp[best_w]) best_w = w;
  }
  if (dp[best_w] == kUnreachable) return std::nullopt;

  // Reconstruct by replaying choices backwards.
  MckpSolution sol;
  sol.choice.resize(k);
  sol.weight = static_cast<int>(best_w);
  std::size_t w = best_w;
  for (std::size_t i = k; i-- > 0;) {
    const std::size_t j = choice[i * w_dim + w];
    sol.choice[i] = j;
    w -= static_cast<std::size_t>(classes[i][j].weight);
  }
  assert(w == 0);
  for (std::size_t i = 0; i < k; ++i) {
    sol.value += classes[i][sol.choice[i]].value;
  }
  return sol;
}

std::optional<MckpSolution> solve_mckp_greedy(
    const std::vector<MckpClass>& classes, int capacity) {
  const std::size_t k = classes.size();
  MckpSolution sol;
  sol.choice.resize(k);

  // Start every class at its minimum-weight item (best value among ties).
  for (std::size_t i = 0; i < k; ++i) {
    if (classes[i].empty()) return std::nullopt;
    std::size_t best = 0;
    for (std::size_t j = 1; j < classes[i].size(); ++j) {
      const auto& it = classes[i][j];
      const auto& cur = classes[i][best];
      if (it.weight < cur.weight ||
          (it.weight == cur.weight && it.value > cur.value)) {
        best = j;
      }
    }
    sol.choice[i] = best;
    sol.weight += classes[i][best].weight;
    sol.value += classes[i][best].value;
  }
  if (sol.weight > capacity) return std::nullopt;

  // Repeatedly take the best-efficiency upgrade that fits.
  for (;;) {
    double best_eff = 0.0;
    std::size_t best_class = k;
    std::size_t best_item = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& cur = classes[i][sol.choice[i]];
      for (std::size_t j = 0; j < classes[i].size(); ++j) {
        const auto& cand = classes[i][j];
        const int dw = cand.weight - cur.weight;
        const double dv = cand.value - cur.value;
        if (dw <= 0 || dv <= 0.0) continue;
        if (sol.weight + dw > capacity) continue;
        const double eff = dv / static_cast<double>(dw);
        if (eff > best_eff) {
          best_eff = eff;
          best_class = i;
          best_item = j;
        }
      }
    }
    if (best_class == k) break;
    const auto& cur = classes[best_class][sol.choice[best_class]];
    const auto& cand = classes[best_class][best_item];
    sol.weight += cand.weight - cur.weight;
    sol.value += cand.value - cur.value;
    sol.choice[best_class] = best_item;
  }
  return sol;
}

namespace {

void brute_rec(const std::vector<MckpClass>& classes, int capacity,
               std::size_t i, std::vector<std::size_t>& pick, int weight,
               double value, std::optional<MckpSolution>& best) {
  if (weight > capacity) return;
  if (i == classes.size()) {
    if (!best || value > best->value) {
      best = MckpSolution{pick, value, weight};
    }
    return;
  }
  for (std::size_t j = 0; j < classes[i].size(); ++j) {
    pick[i] = j;
    brute_rec(classes, capacity, i + 1, pick,
              weight + classes[i][j].weight, value + classes[i][j].value,
              best);
  }
}

}  // namespace

std::optional<MckpSolution> solve_mckp_bruteforce(
    const std::vector<MckpClass>& classes, int capacity) {
  for (const auto& cls : classes) {
    if (cls.empty()) return std::nullopt;
  }
  std::optional<MckpSolution> best;
  std::vector<std::size_t> pick(classes.size(), 0);
  brute_rec(classes, capacity, 0, pick, 0, 0.0, best);
  return best;
}

void IncrementalMckp::reset(int max_weight) {
  assert(max_weight >= 0 && max_weight < 0xFFFF);
  max_weight_ = max_weight;
  root_ = -1;
  nodes_.clear();
  leaves_.clear();
  free_.clear();
  value_.clear();
  rank_.clear();
  order_.clear();
  split_.clear();
  mid_value_.assign(dim(), kUnreachable);
  mid_key_.assign(dim(), 0);
  mid_reach_.clear();
  mid_reach_.reserve(dim());
  sort_key_.assign(dim(), 0);
}

void IncrementalMckp::assign(
    int max_weight, std::vector<std::pair<std::uint64_t, MckpClass>> classes) {
  reset(max_weight);
  for (auto& [key, cls] : classes) edit(key, std::move(cls));
  refresh(root_);
}

void IncrementalMckp::upsert(std::uint64_t key, MckpClass cls) {
  edit(key, std::move(cls));
  refresh(root_);
}

bool IncrementalMckp::erase(std::uint64_t key) {
  const bool found = edit(key, std::nullopt);
  refresh(root_);
  return found;
}

bool IncrementalMckp::edit(std::uint64_t key,
                           std::optional<MckpClass> cls) {
  if (!cls) {
    bool found = false;
    root_ = erase_at(root_, key, found);
    return found;
  }
  std::int32_t t = root_;
  while (t >= 0 && nodes_[t].key != key) {
    t = key < nodes_[t].key ? nodes_[t].left : nodes_[t].right;
  }
  if (t < 0) {
    root_ = insert(root_, make_node(key, std::move(*cls)));
    return true;
  }
  for (std::int32_t p = root_; p != t;
       p = key < nodes_[p].key ? nodes_[p].left : nodes_[p].right) {
    nodes_[p].dirty = true;
  }
  set_class(t, std::move(*cls));
  return true;
}

std::int32_t IncrementalMckp::make_node(std::uint64_t key, MckpClass cls) {
  std::int32_t t;
  if (!free_.empty()) {
    t = free_.back();
    free_.pop_back();
  } else {
    t = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    leaves_.emplace_back();
    const std::size_t cells = nodes_.size() * dim();
    value_.resize(cells);
    rank_.resize(cells);
    order_.resize(cells);
    split_.resize(cells);
  }
  nodes_[t] = Node{key, SplitMix64(key).next()};
  set_class(t, std::move(cls));
  return t;
}

void IncrementalMckp::set_class(std::int32_t t, MckpClass cls) {
  assert(cls.size() <= 0x10000);
  auto& items = leaves_[t].items;
  items.clear();
  for (std::size_t j = 0; j < cls.size(); ++j) {
    const int w = cls[j].weight;
    if (w < 0 || w > max_weight_) continue;
    const Fixed v = to_fixed(cls[j].value);
    auto same = std::find_if(
        items.begin(), items.end(),
        [w](const LeafItem& it) { return it.weight == w; });
    if (same == items.end()) {
      items.push_back({w, v, static_cast<std::uint16_t>(j)});
    } else if (v > same->value) {  // equal values keep the lower index
      *same = {w, v, static_cast<std::uint16_t>(j)};
    }
  }
  std::sort(items.begin(), items.end(),
            [](const LeafItem& a, const LeafItem& b) {
              return a.index < b.index;
            });
  leaves_[t].cls = std::move(cls);
  nodes_[t].dirty = true;
}

bool IncrementalMckp::above(std::int32_t a, std::int32_t b) const {
  const Node& x = nodes_[a];
  const Node& y = nodes_[b];
  return x.prio != y.prio ? x.prio > y.prio : x.key < y.key;
}

void IncrementalMckp::split(std::int32_t t, std::uint64_t key,
                            std::int32_t& l, std::int32_t& r) {
  if (t < 0) {
    l = r = -1;
    return;
  }
  nodes_[t].dirty = true;
  if (nodes_[t].key < key) {
    split(nodes_[t].right, key, nodes_[t].right, r);
    l = t;
  } else {
    split(nodes_[t].left, key, l, nodes_[t].left);
    r = t;
  }
}

std::int32_t IncrementalMckp::join(std::int32_t l, std::int32_t r) {
  if (l < 0) return r;
  if (r < 0) return l;
  if (above(l, r)) {
    nodes_[l].right = join(nodes_[l].right, r);
    nodes_[l].dirty = true;
    return l;
  }
  nodes_[r].left = join(l, nodes_[r].left);
  nodes_[r].dirty = true;
  return r;
}

std::int32_t IncrementalMckp::insert(std::int32_t t, std::int32_t n) {
  if (t < 0) return n;
  if (above(n, t)) {
    split(t, nodes_[n].key, nodes_[n].left, nodes_[n].right);
    return n;
  }
  nodes_[t].dirty = true;
  if (nodes_[n].key < nodes_[t].key) {
    nodes_[t].left = insert(nodes_[t].left, n);
  } else {
    nodes_[t].right = insert(nodes_[t].right, n);
  }
  return t;
}

std::int32_t IncrementalMckp::erase_at(std::int32_t t, std::uint64_t key,
                                       bool& found) {
  if (t < 0) return -1;
  Node& n = nodes_[t];
  if (n.key == key) {
    found = true;
    leaves_[t] = Leaf{};
    free_.push_back(t);
    return join(n.left, n.right);
  }
  if (key < n.key) {
    n.left = erase_at(n.left, key, found);
  } else {
    n.right = erase_at(n.right, key, found);
  }
  n.dirty = n.dirty || found;
  return t;
}

void IncrementalMckp::refresh(std::int32_t t) {
  if (t < 0 || !nodes_[t].dirty) return;
  refresh(nodes_[t].left);
  refresh(nodes_[t].right);
  merge_node(t);
  nodes_[t].dirty = false;
}

void IncrementalMckp::merge_node(std::int32_t t) {
  const std::size_t d = dim();
  Node& n = nodes_[t];
  const Leaf& leaf = leaves_[t];
  struct View {
    const Fixed* value;
    const std::uint16_t* rank;
    const std::uint16_t* order;
    std::uint16_t reach;
  };
  // A missing child is the identity: only weight 0, value 0, rank 0.
  static constexpr Fixed kZeroValue[1] = {0};
  static constexpr std::uint16_t kZeroWeight[1] = {0};
  const auto view = [&](std::int32_t c) {
    if (c < 0) return View{kZeroValue, kZeroWeight, kZeroWeight, 1};
    const std::size_t at = static_cast<std::size_t>(c) * d;
    return View{&value_[at], &rank_[at], &order_[at], nodes_[c].reach};
  };
  const View left = view(n.left);
  const View right = view(n.right);

  // mid = left subtree (+) the node's own class. Items go in index
  // order, so strict > leaves the lowest index on a value tie; the key
  // orders mid's vectors reverse-lexicographically: own item, then
  // the left subtree's rank.
  std::fill(mid_value_.begin(), mid_value_.end(), kUnreachable);
  for (const LeafItem& it : leaf.items) {
    for (std::uint16_t i = 0; i < left.reach; ++i) {
      const std::size_t a = left.order[i];
      const std::size_t w = a + static_cast<std::size_t>(it.weight);
      if (w >= d) continue;
      const Fixed cand = add(left.value[a], it.value);
      if (cand > mid_value_[w]) {
        mid_value_[w] = cand;
        mid_key_[w] =
            (static_cast<std::uint32_t>(it.index) << 16) | left.rank[a];
      }
    }
  }
  mid_reach_.clear();
  for (std::size_t w = 0; w < d; ++w) {
    if (mid_value_[w] != kUnreachable) {
      mid_reach_.push_back(static_cast<std::uint16_t>(w));
    }
  }

  // node = mid (+) right subtree. The right side goes in rank order, so
  // strict > leaves the lowest right rank on a value tie - the last
  // classes are compared first.
  const std::size_t base = static_cast<std::size_t>(t) * d;
  Fixed* out = &value_[base];
  std::fill(out, out + d, kUnreachable);
  for (std::uint16_t ri = 0; ri < right.reach; ++ri) {
    const std::size_t b = right.order[ri];
    const Fixed vb = right.value[b];
    for (const std::uint16_t m : mid_reach_) {
      const std::size_t w = m + b;
      if (w >= d) break;
      const Fixed cand = add(mid_value_[m], vb);
      if (cand > out[w]) {
        out[w] = cand;
        sort_key_[w] = (static_cast<std::uint64_t>(ri) << 32) | mid_key_[m];
        split_[base + w] = b;
      }
    }
  }

  // Rank the reachable weights: (right rank, own item, left rank)
  // orders the node's vectors reverse-lexicographically. Complete each
  // split with the own item, so a backtrack never reads the class.
  // The 48-bit keys are packed above their weight and compacted in
  // place (slot reach <= w is already read), so one plain sort ranks.
  std::uint16_t reach = 0;
  for (std::size_t w = 0; w < d; ++w) {
    if (out[w] == kUnreachable) continue;
    const std::uint64_t j = (sort_key_[w] >> 16) & 0xFFFF;
    const auto own_w = static_cast<std::uint64_t>(leaf.cls[j].weight);
    split_[base + w] |= own_w << 16 | j << 32;
    sort_key_[reach++] = sort_key_[w] << 16 | w;
  }
  std::sort(sort_key_.begin(), sort_key_.begin() + reach);
  for (std::uint16_t r = 0; r < reach; ++r) {
    const auto w = static_cast<std::uint16_t>(sort_key_[r] & 0xFFFF);
    order_[base + r] = w;
    rank_[base + w] = r;
  }
  n.reach = reach;
  n.merged = true;
  ++nodes_merged_;
}

std::optional<std::size_t> IncrementalMckp::best_weight(int capacity) const {
  assert(capacity >= 0);
  const std::size_t cap =
      static_cast<std::size_t>(std::min(capacity, max_weight_));
  const Fixed* root = &value_[static_cast<std::size_t>(root_) * dim()];
  std::size_t best = 0;
  for (std::size_t w = 1; w <= cap; ++w) {
    if (root[w] > root[best]) best = w;
  }
  if (root[best] == kUnreachable) return std::nullopt;
  return best;
}

template <typename Visit>
void IncrementalMckp::walk(std::int32_t t, std::size_t w,
                           const Visit& visit) const {
  // In order - the left subtree, the node's own class, the right
  // subtree - which is class order.
  while (t >= 0) {
    const std::uint64_t split = split_[static_cast<std::size_t>(t) * dim() + w];
    const std::size_t right_w = split & 0xFFFF;
    const std::size_t own_w = (split >> 16) & 0xFFFF;
    walk(nodes_[t].left, w - right_w - own_w, visit);
    visit(t, static_cast<std::size_t>(split >> 32), static_cast<int>(own_w));
    t = nodes_[t].right;
    w = right_w;
  }
}

std::optional<MckpSolution> IncrementalMckp::solve(int capacity) const {
  if (root_ < 0) return MckpSolution{{}, 0.0, 0};
  const auto best = best_weight(capacity);
  if (!best) return std::nullopt;
  MckpSolution sol;
  sol.choice.reserve(size());
  sol.weight = static_cast<int>(*best);
  // Summed in class order, exactly as solve_mckp_dp sums.
  walk(root_, *best, [&](std::int32_t t, std::size_t j, int) {
    sol.choice.push_back(j);
    sol.value += leaves_[t].cls[j].value;
  });
  return sol;
}

bool IncrementalMckp::solve_changes(
    int capacity, std::vector<std::pair<std::uint64_t, int>>& changes) {
  changes.clear();
  if (root_ < 0) return true;
  const auto best = best_weight(capacity);
  if (!best) {  // the caller solves another way: the next walk reports all
    for (Node& n : nodes_) n.walk_w = n.own_w = kUnwalked;
    return false;
  }
  // An unmerged node reached at its last weight backtracks as it did
  // then, and so does its whole subtree: a merge dirties every ancestor.
  const auto walk = [&](const auto& self, std::int32_t t, std::size_t w) {
    while (t >= 0) {
      Node& n = nodes_[t];
      if (!n.merged && n.walk_w == w) return;
      ++nodes_walked_;
      n.merged = false;
      n.walk_w = static_cast<std::uint16_t>(w);
      const auto split = split_[static_cast<std::size_t>(t) * dim() + w];
      const std::size_t right_w = split & 0xFFFF;
      const auto own_w = static_cast<std::uint16_t>((split >> 16) & 0xFFFF);
      self(self, n.left, w - right_w - own_w);
      if (n.own_w != own_w) {
        n.own_w = own_w;
        changes.emplace_back(n.key, own_w);
      }
      t = n.right;
      w = right_w;
    }
  };
  walk(walk, root_, *best);
  return true;
}

}  // namespace iofa::core
