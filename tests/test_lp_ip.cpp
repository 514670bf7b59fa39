#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "frote/opt/ip.hpp"
#include "frote/opt/lp.hpp"
#include "frote/util/rng.hpp"

namespace frote {
namespace {

/// max x0 + x1 s.t. x0 + x1 + s = 1 (s >= 0): a simplex on the unit simplex.
TEST(Lp, SimpleBudget) {
  LpProblem lp;
  lp.num_vars = 3;
  lp.num_rows = 1;
  lp.c = {1.0, 1.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, kLpInfinity};
  lp.a = {1.0, 1.0, 1.0};
  lp.b = {1.0};
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-9);
}

/// Weighted selection: prefer the heavier variable under a budget of one.
TEST(Lp, PrefersHeavierWeight) {
  LpProblem lp;
  lp.num_vars = 3;
  lp.num_rows = 1;
  lp.c = {1.0, 3.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, kLpInfinity};
  lp.a = {1.0, 1.0, 1.0};
  lp.b = {1.0};
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_NEAR(r.x[0], 0.0, 1e-9);
}

/// Range constraint via bounded slack: 2 ≤ x0+x1+x2 ≤ 3 maximizing -x's
/// forces the lower bound to bind.
TEST(Lp, LowerBoundBinds) {
  LpProblem lp;
  lp.num_vars = 4;  // 3 binaries + slack
  lp.num_rows = 1;
  lp.c = {-1.0, -2.0, -3.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, 1.0, 1.0};  // slack range = u - l = 1
  lp.a = {1.0, 1.0, 1.0, 1.0};
  lp.b = {3.0};  // u = 3
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Cheapest way to reach the lower bound 2: x0 = x1 = 1.
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_NEAR(r.x[2], 0.0, 1e-9);
  EXPECT_NEAR(r.objective, -3.0, 1e-9);
}

TEST(Lp, DetectsInfeasible) {
  LpProblem lp;
  lp.num_vars = 1;
  lp.num_rows = 1;
  lp.c = {1.0};
  lp.lo = {0.0};
  lp.hi = {1.0};
  lp.a = {1.0};
  lp.b = {5.0};  // x = 5 impossible with x ≤ 1 and no slack
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Lp, EqualityWithNegativeRhs) {
  // x0 - x1 = -1, maximize x0: optimal x0 = 0? With x ∈ [0,1]: x0 - x1 = -1
  // forces x1 = x0 + 1, so x0 = 0, x1 = 1.
  LpProblem lp;
  lp.num_vars = 2;
  lp.num_rows = 1;
  lp.c = {1.0, 0.0};
  lp.lo = {0.0, 0.0};
  lp.hi = {1.0, 1.0};
  lp.a = {1.0, -1.0};
  lp.b = {-1.0};
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

/// Fractional LP optimum forces actual branching.
TEST(Ip, BranchesOnFractionalOptimum) {
  // max 2x0 + 3x1 + 2x2, x0+x1+x2 + s = 2 with slack range 0 (equality 2).
  LpProblem lp;
  lp.num_vars = 4;
  lp.num_rows = 1;
  lp.c = {2.0, 3.0, 2.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, 1.0, 0.0};
  lp.a = {1.0, 1.0, 1.0, 1.0};
  lp.b = {2.0};
  const auto r = solve_binary_ip(lp, {0, 1, 2});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);  // x1 plus one of x0/x2
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(Ip, KnapsackWithRanges) {
  // Two groups with bounds 1 ≤ Σ ≤ 2 each; weights prefer group-specific
  // items. Variables: g1 = {0,1,2}, g2 = {2,3,4} (item 2 shared).
  LpProblem lp;
  lp.num_vars = 5 + 2;  // 5 binaries + 2 slacks
  lp.num_rows = 2;
  lp.c = {5.0, 1.0, 4.0, 1.0, 3.0, 0.0, 0.0};
  lp.lo.assign(7, 0.0);
  lp.hi = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};  // slack ranges 2-1 = 1
  lp.a.assign(2 * 7, 0.0);
  lp.b = {2.0, 2.0};
  for (std::size_t i : {0u, 1u, 2u}) lp.set_coeff(0, i, 1.0);
  for (std::size_t i : {2u, 3u, 4u}) lp.set_coeff(1, i, 1.0);
  lp.set_coeff(0, 5, 1.0);
  lp.set_coeff(1, 6, 1.0);
  const auto r = solve_binary_ip(lp, {0, 1, 2, 3, 4});
  ASSERT_TRUE(r.feasible);
  // Best: x0 (5) + x2 (4, shared) + x4 (3) = 12, group counts 2 and 2.
  EXPECT_NEAR(r.objective, 12.0, 1e-9);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[2], 1.0, 1e-9);
  EXPECT_NEAR(r.x[4], 1.0, 1e-9);
}

TEST(Ip, InfeasibleReported) {
  // Need Σ of one binary = 2: impossible.
  LpProblem lp;
  lp.num_vars = 1;
  lp.num_rows = 1;
  lp.c = {1.0};
  lp.lo = {0.0};
  lp.hi = {1.0};
  lp.a = {1.0};
  lp.b = {2.0};
  EXPECT_FALSE(solve_binary_ip(lp, {0}).feasible);
}

TEST(Ip, IntegralRelaxationFlagged) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.num_rows = 1;
  lp.c = {2.0, 1.0};
  lp.lo = {0.0, 0.0};
  lp.hi = {1.0, 1.0};
  lp.a = {1.0, 1.0};
  lp.b = {1.0};
  const auto r = solve_binary_ip(lp, {0, 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.relaxation_was_integral);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// IpSelector-shaped instances: one binary per base-population instance, one
// 0/1 row per rule over that rule's pool, and the range l_j ≤ Σ z ≤ u_j as
// the equality Σ z + s_j = u_j with slack 0 ≤ s_j ≤ u_j − l_j — the exact
// layout IpSelector::select hands to solve_binary_ip.

struct SelectionShape {
  std::size_t p = 0;
  std::vector<std::vector<std::size_t>> pools;  // per rule, ascending vars
  std::vector<double> weights;                  // per var
  std::vector<double> lower, upper;             // per rule
};

LpProblem selection_lp(const SelectionShape& shape) {
  const std::size_t p = shape.p;
  const std::size_t m = shape.pools.size();
  LpProblem lp;
  lp.num_vars = p + m;
  lp.num_rows = m;
  lp.c.assign(lp.num_vars, 0.0);
  lp.lo.assign(lp.num_vars, 0.0);
  lp.hi.assign(lp.num_vars, 1.0);
  lp.a.assign(lp.num_rows * lp.num_vars, 0.0);
  lp.b.assign(m, 0.0);
  for (std::size_t i = 0; i < p; ++i) lp.c[i] = shape.weights[i];
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t v : shape.pools[j]) lp.set_coeff(j, v, 1.0);
    lp.set_coeff(j, p + j, 1.0);
    lp.hi[p + j] = std::max(0.0, shape.upper[j] - shape.lower[j]);
    lp.b[j] = shape.upper[j];
  }
  return lp;
}

std::vector<std::size_t> first_vars(std::size_t p) {
  std::vector<std::size_t> vars(p);
  for (std::size_t i = 0; i < p; ++i) vars[i] = i;
  return vars;
}

/// IpSelector's bounds for a pool of `size` under budget `eta` over `m`
/// rules: l = min(k+1, size), u = min(max(l, floor(eta/m)), size).
void selector_bounds(SelectionShape& shape, std::size_t k, std::size_t eta) {
  const std::size_t m = shape.pools.size();
  shape.lower.assign(m, 0.0);
  shape.upper.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    const double size = static_cast<double>(shape.pools[j].size());
    shape.lower[j] = std::min(static_cast<double>(k + 1), size);
    shape.upper[j] = std::min(
        std::max(shape.lower[j],
                 std::floor(static_cast<double>(eta) /
                            static_cast<double>(m))),
        size);
  }
}

/// Every var gets a home rule; with probability `overlap` it also joins a
/// second one. Weights are the selector's borderline {1, 3}.
SelectionShape overlapping_shape(std::size_t p, std::size_t m, double overlap,
                                 std::uint64_t seed) {
  Rng rng(seed);
  SelectionShape shape;
  shape.p = p;
  shape.pools.assign(m, {});
  shape.weights.assign(p, 1.0);
  for (std::size_t v = 0; v < p; ++v) {
    const std::size_t home = rng.index(m);
    const std::size_t other = rng.bernoulli(overlap) ? rng.index(m) : home;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == home || j == other) shape.pools[j].push_back(v);
    }
    if (rng.bernoulli(0.3)) shape.weights[v] = 3.0;
  }
  return shape;
}

/// Every var sits in exactly two of three rules (an odd cycle, so the 0/1
/// matrix is not totally unimodular) and each rule allows at most 3: the LP
/// optimum is the fractional 4.5 while the best 0/1 selection is 4.
SelectionShape odd_cycle_shape(std::size_t p) {
  SelectionShape shape;
  shape.p = p;
  shape.pools.assign(3, {});
  shape.weights.assign(p, 1.0);
  for (std::size_t v = 0; v < p; ++v) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (j != v % 3) shape.pools[j].push_back(v);
    }
  }
  shape.lower.assign(3, 0.0);
  shape.upper.assign(3, 3.0);
  return shape;
}

/// FNV-1a over the bits of x, the objective bits, nodes_explored and
/// relaxation_was_integral.
std::uint64_t ip_digest(const IpResult& r) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  for (double v : r.x) mix(bits(v));
  mix(bits(r.objective));
  mix(r.nodes_explored);
  mix(r.relaxation_was_integral ? 1 : 0);
  return hash;
}

/// Best objective over every 0/1 assignment of `shape`, or -inf when no
/// assignment meets all the rule ranges.
double enumerate_best(const SelectionShape& shape) {
  double best = -kLpInfinity;
  const std::size_t m = shape.pools.size();
  for (std::uint32_t mask = 0; mask < (1u << shape.p); ++mask) {
    bool feasible = true;
    for (std::size_t j = 0; j < m && feasible; ++j) {
      double count = 0.0;
      for (std::size_t v : shape.pools[j]) count += (mask >> v) & 1u;
      feasible = count >= shape.lower[j] && count <= shape.upper[j];
    }
    if (!feasible) continue;
    double objective = 0.0;
    for (std::size_t v = 0; v < shape.p; ++v) {
      if ((mask >> v) & 1u) objective += shape.weights[v];
    }
    best = std::max(best, objective);
  }
  return best;
}

TEST(Ip, MatchesExhaustiveEnumeration) {
  // Differential oracle: seeded small instances built the way IpSelector
  // builds them (≤ 14 binaries, 1–4 overlapping rule rows, ranges as
  // bounded slacks) against brute force. Weights cycle through the
  // selector's {1, 3}, arbitrary reals and all-equal ties; bounds through
  // the selector's formula, random ranges and nested pools whose ranges
  // contradict (infeasible). The node budget is lifted above the full tree
  // (2^15 nodes) so branch and bound always proves optimality.
  IpConfig exhaustive;
  exhaustive.max_nodes = std::size_t{1} << 15;
  std::size_t root_integral = 0, branched = 0, infeasible = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(derive_seed(0x1b0a, seed));
    SelectionShape shape;
    shape.p = 1 + rng.index(14);
    const bool pairs = rng.bernoulli(0.4);
    const std::size_t m = pairs ? 3 + rng.index(2) : 1 + rng.index(4);
    const double density = rng.uniform(0.25, 0.75);
    shape.pools.assign(m, {});
    for (std::size_t v = 0; v < shape.p; ++v) {
      if (pairs) {
        // Every var in exactly two rules: odd cycles among the rows make
        // fractional LP vertices, so these instances reach branching.
        const std::size_t first = rng.index(m);
        const std::size_t second = (first + 1 + rng.index(m - 1)) % m;
        for (std::size_t j = 0; j < m; ++j) {
          if (j == first || j == second) shape.pools[j].push_back(v);
        }
        continue;
      }
      for (std::size_t j = 0; j < m; ++j) {
        if (rng.bernoulli(density)) shape.pools[j].push_back(v);
      }
    }
    shape.weights.assign(shape.p, 1.0);
    for (double& w : shape.weights) {
      switch (seed % 3) {
        case 0: w = rng.bernoulli(0.4) ? 3.0 : 1.0; break;
        case 1: w = rng.uniform(0.1, 5.0); break;
        default: break;  // all tied at 1
      }
    }
    switch (pairs ? 1 : rng.index(3)) {
      case 0:
        selector_bounds(shape, /*k=*/rng.index(5), /*eta=*/1 + rng.index(20));
        break;
      case 1:
        // Random ranges; over pairs, one odd cap for every rule
        // (0 ≤ Σ ≤ u, u ∈ {1, 3, 5}) keeps the odd cycles binding.
        shape.lower.assign(m, 0.0);
        shape.upper.assign(m, 0.0);
        for (std::size_t j = 0, cap = 1 + 2 * rng.index(3); j < m; ++j) {
          const std::size_t size = shape.pools[j].size();
          const std::size_t lo = pairs ? 0 : rng.index(size + 1);
          const std::size_t hi =
              pairs ? std::min(size, cap) : lo + rng.index(size - lo + 1);
          shape.lower[j] = static_cast<double>(lo);
          shape.upper[j] = static_cast<double>(hi);
        }
        break;
      default:
        // Nested pools: rule 0 holds every var and allows at most u, a
        // sub-pool demands more than u.
        shape.pools.assign(2, {});
        for (std::size_t v = 0; v < shape.p; ++v) {
          shape.pools[0].push_back(v);
          if (v % 2 == 0) shape.pools[1].push_back(v);
        }
        shape.upper = {static_cast<double>(rng.index(shape.pools[1].size())),
                       static_cast<double>(shape.pools[1].size())};
        shape.lower = {0.0, shape.upper[0] + 1.0};
        break;
    }

    const double best = enumerate_best(shape);
    const IpResult r = solve_binary_ip(selection_lp(shape),
                                       first_vars(shape.p), exhaustive);
    EXPECT_FALSE(r.node_limit_reached) << "seed " << seed;
    EXPECT_EQ(r.lp_failures, 0u) << "seed " << seed;
    ASSERT_EQ(r.feasible, best > -kLpInfinity) << "seed " << seed;
    if (!r.feasible) {
      ++infeasible;
      continue;
    }
    EXPECT_NEAR(r.objective, best, 1e-9) << "seed " << seed;
    // The returned point must itself be a feasible 0/1 selection.
    for (std::size_t j = 0; j < shape.pools.size(); ++j) {
      double count = 0.0;
      for (std::size_t v : shape.pools[j]) count += r.x[v];
      EXPECT_GE(count, shape.lower[j]) << "seed " << seed << " rule " << j;
      EXPECT_LE(count, shape.upper[j]) << "seed " << seed << " rule " << j;
    }
    ++(r.relaxation_was_integral ? root_integral : branched);
  }
  std::printf("IP oracle: 200 instances, %zu root-integral, %zu branch and "
              "bound, %zu infeasible\n",
              root_integral, branched, infeasible);
  EXPECT_EQ(root_integral + branched + infeasible, 200u);
  EXPECT_GT(branched, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST(Ip, FlagsNodeLimit) {
  // 12 odd-cycle vars finish their tree inside the default 400 nodes; 30
  // do not, and the result says its incumbent is unproven.
  const IpResult done =
      solve_binary_ip(selection_lp(odd_cycle_shape(12)), first_vars(12));
  EXPECT_FALSE(done.node_limit_reached);
  const IpResult cut =
      solve_binary_ip(selection_lp(odd_cycle_shape(30)), first_vars(30));
  EXPECT_TRUE(cut.node_limit_reached);
  EXPECT_EQ(cut.nodes_explored, IpConfig{}.max_nodes);
  EXPECT_TRUE(cut.feasible);
}

TEST(Ip, SolutionsMatchPinnedDigests) {
  // Solver lock: these digests were taken from the allocating dense simplex
  // (pricing through a per-column copy, a full LpProblem copy per B&B
  // node). Any rewrite of solve_lp / solve_binary_ip must reproduce every
  // bit: Dantzig tie-breaks follow column order, so an arithmetic or
  // ordering change shows up here before it reaches a scenario golden.
  // Sizes span a small selection, a mid one and the adult_ip_rf base
  // population (p ≈ 3300, three rules, η = 50).
  struct Case {
    std::size_t p;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  for (const Case& c : {Case{40, 21, 0x0cfb63b8503ac27dULL},
                        Case{400, 22, 0x813c7da7e8dbf9b7ULL},
                        Case{3300, 23, 0x2a33d7d5e365db17ULL}}) {
    SelectionShape shape = overlapping_shape(c.p, 3, 0.35, c.seed);
    selector_bounds(shape, /*k=*/5, /*eta=*/50);
    const IpResult r = solve_binary_ip(selection_lp(shape), first_vars(c.p));
    ASSERT_TRUE(r.feasible) << "p=" << c.p;
    EXPECT_TRUE(r.relaxation_was_integral) << "p=" << c.p;
    EXPECT_EQ(ip_digest(r), c.digest) << "p=" << c.p;
  }

  // Forced branch and bound (see odd_cycle_shape): the bound never prunes
  // (4.5 > 4), so 12 vars explore a full 215-node tree and 30 vars run out
  // the node budget.
  for (const Case& c : {Case{12, 0, 0x4bf0ac29b1737fbfULL},
                        Case{30, 0, 0xe3700c3492eda233ULL}}) {
    const IpResult r =
        solve_binary_ip(selection_lp(odd_cycle_shape(c.p)), first_vars(c.p));
    ASSERT_TRUE(r.feasible) << "p=" << c.p;
    EXPECT_FALSE(r.relaxation_was_integral);
    EXPECT_GT(r.nodes_explored, 1u);
    EXPECT_NEAR(r.objective, 4.0, 1e-9);
    EXPECT_EQ(ip_digest(r), c.digest) << "odd cycle p=" << c.p;
  }
}

}  // namespace
}  // namespace frote
