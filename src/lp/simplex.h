/**
 * @file
 * A dense two-phase primal simplex solver for small linear programs in
 * standard equality form:
 *
 *     minimize    c·x
 *     subject to  A x = b,   x ≥ 0.
 *
 * The paper's energy optimizer (§III-B3, equations (4)–(7)) is exactly such
 * a program with two equality rows and N ≤ 234 variables, so a dense
 * tableau with Bland's anti-cycling rule is more than sufficient. It is a
 * reference solver: the controller's convex-hull optimizer in core/ is
 * cross-checked against it by property tests and timed beside it by E9.
 */
#ifndef AEO_LP_SIMPLEX_H_
#define AEO_LP_SIMPLEX_H_

#include <vector>

namespace aeo {

/** An LP in standard equality form (b may be any sign; rows are scaled). */
struct LpProblem {
    /** Objective coefficients c (length n). */
    std::vector<double> objective;
    /** Equality constraint matrix A, row-major (m rows of length n). */
    std::vector<std::vector<double>> eq_lhs;
    /** Right-hand side b (length m). */
    std::vector<double> eq_rhs;
};

/** Result of a simplex solve. */
struct LpSolution {
    /** True iff a feasible optimum was found. */
    bool feasible = false;
    /** True if the LP is unbounded below (then x/objective are invalid). */
    bool unbounded = false;
    /** Optimal objective value. */
    double objective_value = 0.0;
    /** An optimal vertex. */
    std::vector<double> x;
};

/**
 * Solves the LP with two-phase simplex (pivoting/feasibility tolerance
 * 1e-9).
 *
 * @param problem The program; panics on inconsistent dimensions.
 */
LpSolution SolveSimplex(const LpProblem& problem);

}  // namespace aeo

#endif  // AEO_LP_SIMPLEX_H_
