#include "core/energy_optimizer.h"

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

EnergyOptimizer::EnergyOptimizer(const ProfileTable* table) : table_(table)
{
    AEO_ASSERT(table_ != nullptr, "optimizer needs a profile table");

    // Precompute the lower convex hull of (speedup, power). Entries are
    // sorted by speedup; keep only points making a convex, power-increasing
    // lower boundary. Schedules mixing hull vertices dominate all others.
    const auto& entries = table_->entries();
    // First pass: for equal speedups keep the cheapest row.
    std::vector<size_t> candidates;
    for (size_t i = 0; i < entries.size(); ++i) {
        if (!candidates.empty() &&
            entries[candidates.back()].speedup == entries[i].speedup) {
            if (entries[i].power_mw < entries[candidates.back()].power_mw) {
                candidates.back() = i;
            }
            continue;
        }
        candidates.push_back(i);
    }
    // Andrew-monotone-chain lower hull in (speedup, power). The hull may
    // descend in power: a fast-and-cheap row still participates in blends
    // that meet the equality constraint (5) exactly, which is what the
    // paper's LP enforces (performance is held *at* the target, not above).
    for (const size_t idx : candidates) {
        const auto cross_ok = [&]() {
            if (hull_.size() < 2) {
                return true;
            }
            const ProfileEntry& a = entries[hull_[hull_.size() - 2]];
            const ProfileEntry& b = entries[hull_[hull_.size() - 1]];
            const ProfileEntry& c = entries[idx];
            // Keep b only if it lies strictly below segment a–c.
            const double cross =
                (b.speedup - a.speedup) * (c.power_mw.value() - a.power_mw.value()) -
                (b.power_mw.value() - a.power_mw.value()) * (c.speedup - a.speedup);
            return cross > 0.0;
        };
        while (!cross_ok()) {
            hull_.pop_back();
        }
        hull_.push_back(idx);
    }
    AEO_ASSERT(!hull_.empty(), "empty optimizer hull");
}

ConfigSchedule
EnergyOptimizer::MakePair(size_t low, size_t high, double speedup,
                          double cycle_seconds) const
{
    const auto& entries = table_->entries();
    double t_low = 0.0;
    double t_high = 0.0;
    SplitDwell(entries[low].speedup, entries[high].speedup, speedup, cycle_seconds,
               &t_low, &t_high);

    ConfigSchedule schedule;
    if (t_low > 0.0) {
        schedule.slots.push_back(ScheduleSlot{low, t_low});
    }
    if (t_high > 0.0 && high != low) {
        schedule.slots.push_back(ScheduleSlot{high, t_high});
    }
    double power_time = 0.0;
    double speedup_time = 0.0;
    for (const ScheduleSlot& slot : schedule.slots) {
        power_time += entries[slot.entry_index].power_mw.value() * slot.seconds;
        speedup_time += entries[slot.entry_index].speedup * slot.seconds;
    }
    schedule.expected_power_mw = Milliwatts(power_time / cycle_seconds);
    schedule.expected_speedup = speedup_time / cycle_seconds;
    return schedule;
}

ConfigSchedule
EnergyOptimizer::Optimize(double required_speedup, double cycle_seconds) const
{
    AEO_ASSERT(cycle_seconds > 0.0, "cycle duration must be positive");
    const double speedup =
        Clamp(required_speedup, table_->min_speedup(), table_->max_speedup());
    const auto& entries = table_->entries();
    // Hull vertices are sorted by speedup. Find the bracketing segment.
    size_t low = hull_.front();
    size_t high = hull_.front();
    for (size_t i = 0; i < hull_.size(); ++i) {
        if (entries[hull_[i]].speedup <= speedup) {
            low = hull_[i];
            high = hull_[i];
        }
        if (entries[hull_[i]].speedup >= speedup) {
            high = hull_[i];
            break;
        }
    }
    return MakePair(low, high, speedup, cycle_seconds);
}

}  // namespace aeo
