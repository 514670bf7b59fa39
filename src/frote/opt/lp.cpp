#include "frote/opt/lp.hpp"

#include <algorithm>
#include <cmath>

#include "frote/util/error.hpp"

namespace frote {

namespace {

constexpr double kTol = 1e-9;

/// Working copies for dense_solve, sized once per solve_lp call and reused
/// by every simplex iteration.
struct DenseScratch {
  std::vector<double> m, rhs;
  std::vector<std::size_t> perm;
};

/// Solve M x = rhs by Gaussian elimination with partial pivoting, working
/// on copies in `scratch` (`m_in` and `rhs_in` are left untouched).
/// Returns false when M is (numerically) singular.
bool dense_solve(const std::vector<double>& m_in,
                 const std::vector<double>& rhs_in, std::size_t n,
                 DenseScratch& scratch, std::vector<double>& out) {
  std::vector<double>& m = scratch.m;
  std::vector<double>& rhs = scratch.rhs;
  std::vector<std::size_t>& perm = scratch.perm;
  m.assign(m_in.begin(), m_in.end());
  rhs.assign(rhs_in.begin(), rhs_in.end());
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    // Pivot.
    std::size_t best = col;
    double best_abs = std::abs(m[perm[col] * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(m[perm[r] * n + col]);
      if (v > best_abs) {
        best_abs = v;
        best = r;
      }
    }
    if (best_abs < 1e-12) return false;
    std::swap(perm[col], perm[best]);
    const double pivot = m[perm[col] * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m[perm[r] * n + col] / pivot;
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) {
        m[perm[r] * n + k] -= factor * m[perm[col] * n + k];
      }
      rhs[perm[r]] -= factor * rhs[perm[col]];
    }
  }
  out.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = rhs[perm[i]];
    for (std::size_t k = i + 1; k < n; ++k) {
      acc -= m[perm[i] * n + k] * out[k];
    }
    out[i] = acc / m[perm[i] * n + i];
  }
  return true;
}

enum class VarState { kBasic, kAtLower, kAtUpper };

}  // namespace

LpResult solve_lp(const LpProblem& problem, std::size_t max_iterations) {
  return solve_lp(problem, problem.lo, problem.hi, max_iterations);
}

LpResult solve_lp(const LpProblem& problem, const std::vector<double>& lo,
                  const std::vector<double>& hi, std::size_t max_iterations) {
  const std::size_t n = problem.num_vars;
  const std::size_t m = problem.num_rows;
  FROTE_CHECK(problem.c.size() == n && lo.size() == n && hi.size() == n);
  FROTE_CHECK(problem.a.size() == n * m && problem.b.size() == m);
  for (std::size_t j = 0; j < n; ++j) {
    FROTE_CHECK_MSG(lo[j] <= hi[j],
                    "variable " << j << " has empty bound range");
  }

  // Extended problem: user variables + m artificials. Artificial i has
  // column sign_i * e_i so that its initial value is non-negative.
  const std::size_t total = n + m;
  // Big-M large relative to the data.
  double big_m = 1.0;
  for (double v : problem.c) big_m = std::max(big_m, std::abs(v));
  big_m *= 1e6 * static_cast<double>(std::max<std::size_t>(1, n));

  std::vector<VarState> state(total, VarState::kAtLower);
  std::vector<double> x(total, 0.0);
  // Nonbasic user variables start at the bound of smaller magnitude
  // (finite lower bound preferred).
  for (std::size_t j = 0; j < n; ++j) {
    x[j] = lo[j];
    state[j] = VarState::kAtLower;
  }

  // Residuals decide the artificial signs.
  std::vector<double> residual(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = problem.b[i];
    for (std::size_t j = 0; j < n; ++j) acc -= problem.coeff(i, j) * x[j];
    residual[i] = acc;
  }
  std::vector<double> art_sign(m, 1.0);
  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) {
    art_sign[i] = residual[i] >= 0.0 ? 1.0 : -1.0;
    basis[i] = n + i;
    state[n + i] = VarState::kBasic;
    x[n + i] = std::abs(residual[i]);
  }

  // Entry `row` of column `var` of the extended constraint matrix, read in
  // place: A for user variables, sign_i * e_i for artificial n + i.
  auto entry = [&](std::size_t row, std::size_t var) {
    if (var < n) return problem.coeff(row, var);
    return row == var - n ? art_sign[row] : 0.0;
  };
  auto cost = [&](std::size_t var) {
    return var < n ? problem.c[var] : -big_m;
  };
  auto lower = [&](std::size_t var) { return var < n ? lo[var] : 0.0; };
  auto upper = [&](std::size_t var) {
    return var < n ? hi[var] : kLpInfinity;
  };

  // Per-iteration scratch, sized once: the hot loop below allocates
  // nothing.
  std::vector<double> bmat(m * m), bt(m * m), cb(m), y(m), dir(m), col_e(m);
  std::vector<double> reduced(total);
  DenseScratch scratch;
  std::size_t degenerate_steps = 0;

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    // Basis matrix (columns of basic variables) and its transpose.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t r = 0; r < m; ++r) {
        bmat[r * m + i] = entry(r, basis[i]);
        bt[i * m + r] = bmat[r * m + i];
      }
    }
    // Duals: B' y = c_B.
    for (std::size_t i = 0; i < m; ++i) cb[i] = cost(basis[i]);
    if (!dense_solve(bt, cb, m, scratch, y)) {
      return {LpStatus::kIterationLimit, 0.0, {}};
    }

    // Reduced costs d_j = c_j − Σ_i y_i a_ij, accumulated over i in order
    // for every column: row-major sweeps over A in place for the user
    // variables, the single nonzero by index for the artificials. Basic
    // columns are priced too; that costs m columns and keeps the sweeps
    // branch-free.
    for (std::size_t j = 0; j < n; ++j) reduced[j] = problem.c[j];
    for (std::size_t i = 0; i < m; ++i) {
      const double yi = y[i];
      const double* row = problem.a.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) reduced[j] -= yi * row[j];
    }
    for (std::size_t j = n; j < total; ++j) {
      double d = -big_m;
      for (std::size_t i = 0; i < m; ++i) d -= y[i] * entry(i, j);
      reduced[j] = d;
    }

    // Pricing: entering variable.
    const bool use_bland = degenerate_steps > 2 * (m + n);
    std::size_t entering = total;
    double best_score = kTol;
    int enter_dir = 0;  // +1 increase from lower, -1 decrease from upper
    for (std::size_t j = 0; j < total; ++j) {
      if (state[j] == VarState::kBasic) continue;
      const double d = reduced[j];
      if (state[j] == VarState::kAtLower && d > kTol) {
        if (use_bland) {
          entering = j;
          enter_dir = 1;
          break;
        }
        if (d > best_score) {
          best_score = d;
          entering = j;
          enter_dir = 1;
        }
      } else if (state[j] == VarState::kAtUpper && d < -kTol) {
        if (use_bland) {
          entering = j;
          enter_dir = -1;
          break;
        }
        if (-d > best_score) {
          best_score = -d;
          entering = j;
          enter_dir = -1;
        }
      }
    }

    if (entering == total) {
      // Optimal for the extended problem: check artificials.
      for (std::size_t i = 0; i < m; ++i) {
        if (basis[i] >= n && x[basis[i]] > 1e-6) {
          return {LpStatus::kInfeasible, 0.0, {}};
        }
      }
      LpResult result;
      result.status = LpStatus::kOptimal;
      result.x.assign(problem.c.size(), 0.0);
      for (std::size_t j = 0; j < n; ++j) result.x[j] = x[j];
      result.objective = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        result.objective += problem.c[j] * x[j];
      }
      return result;
    }

    // Direction: B d = A_entering.
    for (std::size_t r = 0; r < m; ++r) col_e[r] = entry(r, entering);
    if (!dense_solve(bmat, col_e, m, scratch, dir)) {
      return {LpStatus::kIterationLimit, 0.0, {}};
    }
    // Entering moves by t ≥ 0 in direction sigma; basic vars move by
    // -sigma * d_i * t.
    const double sigma = static_cast<double>(enter_dir);

    double t_max = upper(entering) - lower(entering);  // bound flip limit
    int leaving = -1;     // index into basis; -1 ⇒ bound flip
    int leaving_to = 0;   // -1: leaves at lower, +1: leaves at upper
    for (std::size_t i = 0; i < m; ++i) {
      const double delta = -sigma * dir[i];
      const std::size_t var = basis[i];
      if (delta > kTol) {
        // Basic variable increases toward its upper bound.
        const double room = upper(var) - x[var];
        const double t = room / delta;
        if (t < t_max - kTol) {
          t_max = t;
          leaving = static_cast<int>(i);
          leaving_to = 1;
        }
      } else if (delta < -kTol) {
        const double room = x[var] - lower(var);
        const double t = room / (-delta);
        if (t < t_max - kTol) {
          t_max = t;
          leaving = static_cast<int>(i);
          leaving_to = -1;
        }
      }
    }
    if (t_max == kLpInfinity) {
      // Unbounded cannot occur with bounded user vars; artificials only
      // shrink. Treat as failure.
      return {LpStatus::kIterationLimit, 0.0, {}};
    }
    if (t_max <= kTol) {
      ++degenerate_steps;
    } else {
      degenerate_steps = 0;
    }

    // Apply the step.
    for (std::size_t i = 0; i < m; ++i) {
      x[basis[i]] += -sigma * dir[i] * t_max;
    }
    x[entering] += sigma * t_max;

    if (leaving < 0) {
      // Bound flip: entering switches bounds, basis unchanged.
      state[entering] =
          enter_dir > 0 ? VarState::kAtUpper : VarState::kAtLower;
      x[entering] = enter_dir > 0 ? upper(entering) : lower(entering);
    } else {
      const std::size_t out_var = basis[static_cast<std::size_t>(leaving)];
      state[out_var] = leaving_to > 0 ? VarState::kAtUpper : VarState::kAtLower;
      x[out_var] = leaving_to > 0 ? upper(out_var) : lower(out_var);
      basis[static_cast<std::size_t>(leaving)] = entering;
      state[entering] = VarState::kBasic;
    }
  }
  return {LpStatus::kIterationLimit, 0.0, {}};
}

}  // namespace frote
