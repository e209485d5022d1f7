#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace aeo {

namespace {

/** Pivoting / feasibility tolerance. */
constexpr double kTolerance = 1e-9;

/**
 * Dense simplex tableau with an explicit basis. Phase 1 minimizes the sum
 * of artificial variables; phase 2 minimizes the real objective over the
 * feasible basis found. Bland's rule guarantees termination.
 */
class Tableau {
  public:
    explicit Tableau(const LpProblem& problem)
    {
        m_ = problem.eq_lhs.size();
        n_ = problem.objective.size();
        AEO_ASSERT(problem.eq_rhs.size() == m_, "rhs size %zu != rows %zu",
                   problem.eq_rhs.size(), m_);
        for (const auto& row : problem.eq_lhs) {
            AEO_ASSERT(row.size() == n_, "row width %zu != vars %zu", row.size(), n_);
        }

        // Columns: n real variables + m artificials; plus the rhs column.
        cols_ = n_ + m_;
        a_.assign(m_, std::vector<double>(cols_ + 1, 0.0));
        basis_.resize(m_);
        for (size_t r = 0; r < m_; ++r) {
            const double sign = problem.eq_rhs[r] < 0.0 ? -1.0 : 1.0;
            for (size_t c = 0; c < n_; ++c) {
                a_[r][c] = sign * problem.eq_lhs[r][c];
            }
            a_[r][n_ + r] = 1.0;
            a_[r][cols_] = sign * problem.eq_rhs[r];
            basis_[r] = n_ + r;
        }
    }

    /** Runs both phases; fills @p out. */
    void
    Solve(const std::vector<double>& objective, LpSolution* out)
    {
        // Phase 1: minimize sum of artificials.
        std::vector<double> phase1(cols_, 0.0);
        for (size_t c = n_; c < cols_; ++c) {
            phase1[c] = 1.0;
        }
        if (!RunPhase(phase1)) {
            // Phase 1 is always bounded (objective ≥ 0).
            AEO_PANIC("phase-1 simplex reported unbounded");
        }
        if (CurrentObjective(phase1) > kTolerance * 10.0) {
            out->feasible = false;
            return;
        }
        DriveOutArtificials();

        // Phase 2: the real objective, artificial columns frozen.
        std::vector<double> phase2(cols_, 0.0);
        std::copy(objective.begin(), objective.end(), phase2.begin());
        frozen_from_ = n_;
        if (!RunPhase(phase2)) {
            out->unbounded = true;
            return;
        }
        out->feasible = true;
        out->objective_value = CurrentObjective(phase2);
        out->x.assign(n_, 0.0);
        for (size_t r = 0; r < m_; ++r) {
            if (basis_[r] < n_) {
                out->x[basis_[r]] = a_[r][cols_];
            }
        }
    }

  private:
    /** Reduced cost of column @p c under objective @p obj. */
    double
    ReducedCost(const std::vector<double>& obj, size_t c) const
    {
        double z = 0.0;
        for (size_t r = 0; r < m_; ++r) {
            z += obj[basis_[r]] * a_[r][c];
        }
        return obj[c] - z;
    }

    double
    CurrentObjective(const std::vector<double>& obj) const
    {
        double value = 0.0;
        for (size_t r = 0; r < m_; ++r) {
            value += obj[basis_[r]] * a_[r][cols_];
        }
        return value;
    }

    /** Runs simplex iterations; returns false if unbounded. */
    bool
    RunPhase(const std::vector<double>& obj)
    {
        // Generous iteration bound: Bland's rule terminates well within it.
        const size_t max_iters = 50 * (m_ + cols_ + 10);
        for (size_t iter = 0; iter < max_iters; ++iter) {
            // Bland: entering column = lowest index with negative cost.
            size_t enter = cols_;
            for (size_t c = 0; c < cols_; ++c) {
                if (c >= frozen_from_ && !InBasis(c)) {
                    continue;  // artificial columns may not re-enter
                }
                if (InBasis(c)) {
                    continue;
                }
                if (ReducedCost(obj, c) < -kTolerance) {
                    enter = c;
                    break;
                }
            }
            if (enter == cols_) {
                return true;  // optimal
            }
            // Ratio test, Bland tie-break on basis index.
            size_t leave = m_;
            double best_ratio = std::numeric_limits<double>::infinity();
            for (size_t r = 0; r < m_; ++r) {
                if (a_[r][enter] > kTolerance) {
                    const double ratio = a_[r][cols_] / a_[r][enter];
                    if (ratio < best_ratio - kTolerance ||
                        (std::fabs(ratio - best_ratio) <= kTolerance && leave < m_ &&
                         basis_[r] < basis_[leave])) {
                        best_ratio = ratio;
                        leave = r;
                    }
                }
            }
            if (leave == m_) {
                return false;  // unbounded
            }
            Pivot(leave, enter);
        }
        AEO_PANIC("simplex failed to terminate");
    }

    bool
    InBasis(size_t c) const
    {
        return std::find(basis_.begin(), basis_.end(), c) != basis_.end();
    }

    void
    Pivot(size_t leave_row, size_t enter_col)
    {
        const double pivot = a_[leave_row][enter_col];
        AEO_ASSERT(std::fabs(pivot) > kTolerance / 10.0, "degenerate pivot %g",
                   pivot);
        for (double& value : a_[leave_row]) {
            value /= pivot;
        }
        for (size_t r = 0; r < m_; ++r) {
            if (r == leave_row) {
                continue;
            }
            const double factor = a_[r][enter_col];
            if (factor == 0.0) {
                continue;
            }
            for (size_t c = 0; c <= cols_; ++c) {
                a_[r][c] -= factor * a_[leave_row][c];
            }
        }
        basis_[leave_row] = enter_col;
    }

    /** Pivots any basic artificial with a usable real column out. */
    void
    DriveOutArtificials()
    {
        for (size_t r = 0; r < m_; ++r) {
            if (basis_[r] < n_) {
                continue;
            }
            for (size_t c = 0; c < n_; ++c) {
                if (!InBasis(c) && std::fabs(a_[r][c]) > kTolerance) {
                    Pivot(r, c);
                    break;
                }
            }
        }
    }

    size_t m_ = 0;
    size_t n_ = 0;
    size_t cols_ = 0;
    size_t frozen_from_ = std::numeric_limits<size_t>::max();
    std::vector<std::vector<double>> a_;
    std::vector<size_t> basis_;
};

}  // namespace

LpSolution
SolveSimplex(const LpProblem& problem)
{
    AEO_ASSERT(!problem.objective.empty(), "LP with no variables");
    AEO_ASSERT(!problem.eq_lhs.empty(), "LP with no constraints");
    LpSolution solution;
    Tableau tableau(problem);
    tableau.Solve(problem.objective, &solution);
    return solution;
}

}  // namespace aeo
