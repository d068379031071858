#pragma once
/// \file lp.hpp
/// \brief Dense two-phase primal simplex for small linear programs.
///
/// This is the LP core of the repository's OR-Tools replacement. The paper
/// formulates phase assignment as an ILP (§II-B); our exact engine relaxes it
/// to an LP solved here and branches on fractional variables (milp.hpp). The
/// implementation is a textbook two-phase tableau simplex with Dantzig
/// pricing and a Bland's-rule fallback for anti-cycling — appropriate for the
/// small, well-scaled integer instances the flow produces.

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace t1sfq {

constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

/// minimize c^T x  subject to  lo_r <= a_r^T x <= hi_r  and  lb <= x <= ub.
class LinearProgram {
public:
  /// Adds a variable with bounds and objective coefficient; returns its index.
  int add_variable(double lb = 0.0, double ub = kLpInfinity, double objective = 0.0);
  /// Adds a row `lo <= sum coeff_i * x_i <= hi`; use kLpInfinity for one side.
  int add_row(std::vector<std::pair<int, double>> coeffs, double lo, double hi);

  int num_vars() const { return static_cast<int>(objective_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  double objective(int var) const { return objective_[var]; }
  double lower_bound(int var) const { return lb_[var]; }
  double upper_bound(int var) const { return ub_[var]; }
  void set_bounds(int var, double lb, double ub) {
    lb_[var] = lb;
    ub_[var] = ub;
  }

  struct Row {
    std::vector<std::pair<int, double>> coeffs;
    double lo;
    double hi;
  };
  const Row& row(int r) const { return rows_[r]; }

private:
  std::vector<double> objective_;
  std::vector<double> lb_, ub_;
  std::vector<Row> rows_;
};

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> x;
};

/// Solves the LP with the two-phase simplex. \p max_iterations bounds the
/// total pivot count (0 = automatic limit based on problem size).
LpSolution solve_lp(const LinearProgram& lp, std::size_t max_iterations = 0);

}  // namespace t1sfq
