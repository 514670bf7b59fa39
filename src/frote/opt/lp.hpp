// Dense bounded-variable primal simplex.
//
// FROTE's IP (5) is short and wide: one row per feedback rule (m ≤ 20) and
// one column per base-population instance — p ≈ 3,300 on the 8000-row
// adult workload with three rules. A textbook dense simplex with explicit
// basis refactorisation each iteration suits that shape. An iteration costs
// an O(m³) refactorisation plus pricing, which reads A in place: m
// multiply-subtracts per column, O(m·(p+m)) in all, with no allocation.
// Pricing dominates once p ≫ m². At p ≈ 3,300 and m = 3 a root solve runs
// about 50 iterations at ~9 µs each, ~0.5 ms in all (one thread of a
// 2.1 GHz Xeon). Range constraints l ≤ a'z ≤ u are pre-converted by the
// caller into equalities with bounded slacks. Artificial variables with
// Big-M costs provide the initial basis.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace frote {

/// maximize c'x  subject to  A x = b,  lo ≤ x ≤ hi  (hi may be +inf).
struct LpProblem {
  std::size_t num_vars = 0;
  std::size_t num_rows = 0;
  std::vector<double> c;   // num_vars
  std::vector<double> lo;  // num_vars
  std::vector<double> hi;  // num_vars
  std::vector<double> a;   // row-major, num_rows x num_vars
  std::vector<double> b;   // num_rows

  double coeff(std::size_t row, std::size_t var) const {
    return a[row * num_vars + var];
  }
  void set_coeff(std::size_t row, std::size_t var, double value) {
    a[row * num_vars + var] = value;
  }
};

enum class LpStatus { kOptimal, kInfeasible, kIterationLimit };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
};

/// Solve with the bounded-variable simplex. `max_iterations` guards against
/// cycling (Bland's rule is applied when progress stalls).
LpResult solve_lp(const LpProblem& problem, std::size_t max_iterations = 5000);

/// The same solve with the variable bounds `lo` / `hi` (num_vars each) in
/// place of problem.lo / problem.hi, so branch and bound re-solves one
/// problem under per-node bounds without copying A.
LpResult solve_lp(const LpProblem& problem, const std::vector<double>& lo,
                  const std::vector<double>& hi,
                  std::size_t max_iterations = 5000);

constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

}  // namespace frote
