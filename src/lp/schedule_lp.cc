#include "lp/schedule_lp.h"

#include <limits>

#include "common/logging.h"
#include "common/math_util.h"

namespace aeo {

namespace {

/** Splits the cycle between two bracketing rows to hit the speedup exactly. */
void
SplitDwell(double s_low, double s_high, double required, double cycle_seconds,
           double* t_low, double* t_high)
{
    if (s_high <= s_low) {
        // Degenerate bracket: all time on one row.
        *t_low = cycle_seconds;
        *t_high = 0.0;
        return;
    }
    const double alpha = (required - s_low) / (s_high - s_low);
    *t_high = Clamp(alpha, 0.0, 1.0) * cycle_seconds;
    *t_low = cycle_seconds - *t_high;
}

}  // namespace

LpProblem
BuildScheduleLp(const std::vector<double>& speedups, const std::vector<double>& powers,
                double required_speedup, double cycle_seconds)
{
    AEO_ASSERT(!speedups.empty(), "empty speedup vector");
    AEO_ASSERT(speedups.size() == powers.size(), "speedup/power size mismatch: %zu vs %zu",
               speedups.size(), powers.size());
    AEO_ASSERT(cycle_seconds > 0.0, "cycle duration must be positive");

    LpProblem problem;
    problem.objective = powers;                      // (4): min uᵀ·P
    problem.eq_lhs.push_back(speedups);              // (5): Sᵀ·u = s_n·T
    problem.eq_rhs.push_back(required_speedup * cycle_seconds);
    problem.eq_lhs.emplace_back(speedups.size(), 1.0);  // (6): 1ᵀ·u = T
    problem.eq_rhs.push_back(cycle_seconds);
    return problem;
}

LpSolution
SolveScheduleLp(const std::vector<double>& speedups, const std::vector<double>& powers,
                double required_speedup, double cycle_seconds)
{
    return SolveSimplex(
        BuildScheduleLp(speedups, powers, required_speedup, cycle_seconds));
}

LpSolution
SolveSchedulePairs(const std::vector<double>& speedups,
                   const std::vector<double>& powers, double required_speedup,
                   double cycle_seconds)
{
    AEO_ASSERT(!speedups.empty(), "empty speedup vector");
    AEO_ASSERT(speedups.size() == powers.size(),
               "speedup/power size mismatch: %zu vs %zu", speedups.size(),
               powers.size());
    AEO_ASSERT(cycle_seconds > 0.0, "cycle duration must be positive");
    const size_t n = speedups.size();
    LpSolution solution;
    size_t best_l = n;
    size_t best_h = n;
    double best_energy = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < n; ++l) {
        if (speedups[l] > required_speedup) {
            continue;
        }
        for (size_t h = 0; h < n; ++h) {
            if (speedups[h] < required_speedup) {
                continue;
            }
            double t_low = 0.0;
            double t_high = 0.0;
            SplitDwell(speedups[l], speedups[h], required_speedup, cycle_seconds,
                       &t_low, &t_high);
            double energy = 0.0;
            if (t_low > 0.0) {
                energy += powers[l] * t_low;
            }
            if (t_high > 0.0 && h != l) {
                energy += powers[h] * t_high;
            }
            if (energy < best_energy) {
                best_energy = energy;
                best_l = l;
                best_h = h;
            }
        }
    }
    if (best_l == n) {
        return solution;
    }
    double t_low = 0.0;
    double t_high = 0.0;
    SplitDwell(speedups[best_l], speedups[best_h], required_speedup,
               cycle_seconds, &t_low, &t_high);
    solution.feasible = true;
    solution.objective_value = best_energy;
    solution.x.assign(n, 0.0);
    solution.x[best_h] = t_high;
    solution.x[best_l] = t_low;
    return solution;
}

}  // namespace aeo
