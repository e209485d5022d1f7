/**
 * @file
 * Timing fault injection over the platform time seam. The four timing
 * fault classes perturb *when* the control loop runs rather than *what*
 * the platform reports: TimingFaultPlatform wraps an inner platform and
 * substitutes one perturbed Clock that steps forward inside clock-skew
 * windows and delivers ticks late (jitter storms, handler overruns) or
 * defers them wholesale past a suspend window. Everything is a pure
 * function of (plan, inner tick deadline), hashed with a hand-rolled
 * splitmix64 — no libc RNG — so a scenario replays bit-identically across
 * processes and worker counts.
 */
#ifndef AEO_CHAOS_TIMING_FAULT_H_
#define AEO_CHAOS_TIMING_FAULT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "chaos/platform_decorator.h"
#include "chaos/scenario.h"
#include "platform/clock.h"
#include "sim/time.h"

namespace aeo::chaos {

/** True for the fault classes that act on the time seam. */
bool IsTimingClass(FaultClass cls);

/** The timing-class slice of a scenario, with the scale its delays use. */
struct TimingFaultPlan {
    /** Scenario seed; salts the per-tick jitter hash. */
    uint64_t seed = 0;
    /** Control period the delay magnitudes scale with, seconds. */
    double period_hint_s = 2.0;
    /** Timing-class actions only, in scenario order. */
    std::vector<ScenarioAction> actions;

    bool empty() const { return actions.empty(); }
};

/** Extracts the timing-class actions of @p scenario. */
TimingFaultPlan ExtractTimingPlan(const ChaosScenario& scenario,
                                  double period_hint_s);

/**
 * Platform decorator applying a TimingFaultPlan. Non-timing seams forward
 * untouched; clock() gains a forward-only skew inside kClockSkew windows
 * and delivers ticks late inside jitter/overrun/suspend windows. An empty
 * plan forwards everything verbatim.
 */
class TimingFaultPlatform final : public ForwardingPlatform {
  public:
    TimingFaultPlatform(platform::Platform* inner, TimingFaultPlan plan);

    platform::Clock& clock() override { return clock_; }

  private:
    /**
     * Inner clock plus the plan's accumulated forward skew; monotonic by
     * construction (the skew only grows with inner time) and clamped to be
     * safe against a perturbed inner clock. A tick maps back through the
     * skew in force to an inner deadline, which the plan then delays.
     */
    class PerturbedClock final : public platform::Clock {
      public:
        PerturbedClock(platform::Clock* base, const TimingFaultPlan* plan)
            : base_(base), plan_(plan)
        {
        }
        SimTime Now() override;
        platform::TickHandle ScheduleTick(SimTime when,
                                          std::function<void()> fn) override;
        void CancelTick(platform::TickHandle handle) override
        {
            base_->CancelTick(handle);
        }

      private:
        platform::Clock* base_;
        const TimingFaultPlan* plan_;
        SimTime last_ = SimTime::Zero();
    };

    TimingFaultPlan plan_;
    PerturbedClock clock_;
};

}  // namespace aeo::chaos

#endif  // AEO_CHAOS_TIMING_FAULT_H_
