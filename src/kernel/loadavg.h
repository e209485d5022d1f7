/**
 * @file
 * A /proc/loadavg model: the one-minute average of the runnable-task count,
 * folded the way Linux's calc_global_load() folds it. The paper uses it to
 * characterize its three background-load scenarios (§V-C reports 6.3 /
 * 6.7 / 6.6 for BL / NL / HL).
 */
#ifndef AEO_KERNEL_LOADAVG_H_
#define AEO_KERNEL_LOADAVG_H_

#include "common/logging.h"
#include "sim/time.h"

namespace aeo {

/**
 * One-minute runnable-task average. Like the kernel's, it moves only at
 * LOAD_FREQ instants (every 5 s from construction): each folds the count
 * in force into the average with the fixed-point decay EXP_1 / FIXED_1.
 * How a run is split into segments therefore cannot change the value.
 */
class LoadAvg {
  public:
    /** Linux's LOAD_FREQ. */
    static constexpr SimTime kLoadFreq = SimTime::FromSeconds(5);
    /** Linux's EXP_1 / FIXED_1 = 1884 / 2048 ≈ exp(−5 s / 60 s): the
     * one-minute decay per fold, exact in binary. */
    static constexpr double kDecay = 1884.0 / 2048.0;

    /** @param resident_tasks Baseline runnable+resident task pressure. */
    explicit LoadAvg(double resident_tasks = 0.0);

    /**
     * Advances the clock by @p dt, during which @p runnable tasks (busy
     * cores plus queue) were active on top of the resident pressure. Every
     * LOAD_FREQ instant in (start, start + dt] folds that count.
     */
    void
    Advance(double runnable, SimTime dt)
    {
        AEO_ASSERT(dt >= SimTime::Zero(), "negative interval");
        since_fold_ += dt;
        if (since_fold_ >= kLoadFreq) {
            Fold(runnable);
        }
    }

    /** Current one-minute average. */
    double value() const { return value_; }

    /** Changes the resident pressure (background-load switches). */
    void set_resident_tasks(double tasks) { resident_tasks_ = tasks; }

  private:
    /** Folds @p runnable once per LOAD_FREQ instant passed. */
    void Fold(double runnable);

    double resident_tasks_;
    double value_;
    /** Time since the last LOAD_FREQ instant. */
    SimTime since_fold_ = SimTime::Zero();
};

}  // namespace aeo

#endif  // AEO_KERNEL_LOADAVG_H_
