/**
 * @file
 * Builder for the paper's energy-minimization linear program
 * (§III-B3, equations (4)–(7)):
 *
 *     min   uᵀ·P                      (4)  energy objective
 *     s.t.  Sᵀ·u = s_n · T            (5)  performance constraint
 *           1ᵀ·u = T                  (6)  cycle-budget constraint
 *           0 ≤ u ≤ T                 (7)
 *
 * where u is the per-configuration dwell-time vector, S and P the profiled
 * speedup and power vectors, s_n the required speedup and T the control
 * cycle duration. The upper bounds u ≤ T are implied by (6) and u ≥ 0, so
 * the program maps directly onto the standard-form simplex solver.
 *
 * Both solvers here are references, linked by tests and the E9 overhead
 * bench only: the controller's EnergyOptimizer (core/energy_optimizer.h)
 * walks the lower convex hull instead, and property tests check it
 * against these.
 */
#ifndef AEO_LP_SCHEDULE_LP_H_
#define AEO_LP_SCHEDULE_LP_H_

#include <vector>

#include "lp/simplex.h"

namespace aeo {

/** Builds the LP (4)–(7) over the given speedup/power columns. */
LpProblem BuildScheduleLp(const std::vector<double>& speedups,
                          const std::vector<double>& powers,
                          double required_speedup, double cycle_seconds);

/**
 * Solves the schedule LP with the general simplex solver.
 *
 * @return per-configuration dwell times (seconds); infeasible → empty
 *         solution with feasible=false.
 */
LpSolution SolveScheduleLp(const std::vector<double>& speedups,
                           const std::vector<double>& powers,
                           double required_speedup, double cycle_seconds);

/**
 * Solves the schedule LP by the paper's O(N²) enumeration (§III-B3, Fig. 3):
 * every pair (c_l, c_h) with s_l ≤ s_n ≤ s_h is split to meet (5) exactly,
 * and the cheapest pair wins (the first one visited, in ascending l then
 * ascending h, on ties). The split and the objective use the hull
 * optimizer's arithmetic, so on the same rows the two agree bit for bit:
 * the high dwell is clamp((s_n - s_l)/(s_h - s_l), 0, 1)·T, the low dwell is
 * the rest, and the objective sums the low dwell first.
 *
 * @return per-configuration dwell times (seconds) with at most two non-zero
 *         entries; feasible=false when no pair brackets @p required_speedup.
 */
LpSolution SolveSchedulePairs(const std::vector<double>& speedups,
                              const std::vector<double>& powers,
                              double required_speedup, double cycle_seconds);

}  // namespace aeo

#endif  // AEO_LP_SCHEDULE_LP_H_
