/**
 * @file
 * The energy optimizer (§III-B3, equations (4)–(7)): given the required
 * speedup s_n and the profile table, pick per-configuration dwell times
 * minimizing energy over the control cycle subject to the performance and
 * budget constraints.
 *
 * As the paper notes, an optimal solution exists with at most two non-zero
 * dwell times, for configurations c_l, c_h bracketing the required speedup
 * (Fig. 3), and those two lie on the lower convex hull of the (speedup,
 * power) point set. The optimizer walks that hull. The paper's O(N²) pair
 * enumeration and the general simplex solve of the LP are reference solvers
 * in src/lp (lp/schedule_lp.h); property tests check the hull against both.
 */
#ifndef AEO_CORE_ENERGY_OPTIMIZER_H_
#define AEO_CORE_ENERGY_OPTIMIZER_H_

#include <vector>

#include "common/static_vector.h"
#include "core/profile_table.h"

namespace aeo {

/** One scheduled dwell: a profile-table row and its duration. */
struct ScheduleSlot {
    /** Index into ProfileTable::entries(). */
    size_t entry_index = 0;
    /** Dwell time, seconds. */
    double seconds = 0.0;
};

/**
 * The dwell slots of one schedule. The LP (4)–(7) provably admits an
 * optimum with at most two non-zero dwells (configurations bracketing the
 * required speedup, Fig. 3), so the storage is inline: building, copying
 * and replaying a schedule on the per-cycle control path allocates nothing.
 */
using ScheduleSlots = StaticVector<ScheduleSlot, 2>;

/** An energy-optimal control input u_n. */
struct ConfigSchedule {
    /** Non-zero dwells, in application order (lower speedup first). */
    ScheduleSlots slots;
    /** Expected average power over the cycle. */
    Milliwatts expected_power_mw;
    /** Expected average speedup over the cycle. */
    double expected_speedup = 0.0;
};

/** Solves the per-cycle energy minimization over a profile table. */
class EnergyOptimizer {
  public:
    /** @param table Profile table; must outlive the optimizer. */
    explicit EnergyOptimizer(const ProfileTable* table);

    /**
     * Computes the minimum-energy schedule achieving @p required_speedup on
     * average over @p cycle_seconds. Speedups outside the achievable range
     * are clamped to it (the integrator is clamped the same way).
     */
    ConfigSchedule Optimize(double required_speedup, double cycle_seconds) const;

    /** Indices of table rows on the lower convex hull (for inspection). */
    const std::vector<size_t>& hull_indices() const { return hull_; }

  private:
    ConfigSchedule MakePair(size_t low, size_t high, double speedup,
                            double cycle_seconds) const;

    const ProfileTable* table_;
    std::vector<size_t> hull_;
};

}  // namespace aeo

#endif  // AEO_CORE_ENERGY_OPTIMIZER_H_
