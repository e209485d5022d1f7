#include "chaos/timing_fault.h"

#include <algorithm>
#include <utility>

namespace aeo::chaos {

namespace {

/** How far the clock can drift forward across one full skew window, in
 * control periods at intensity 1. */
constexpr double kSkewPeriodsPerWindow = 2.0;
/** Worst-case jitter delay at intensity 1, in control periods. */
constexpr double kJitterPeriods = 1.5;
/** Fixed overrun delay at intensity 1, in control periods. */
constexpr double kOverrunPeriods = 0.8;

/** splitmix64: cheap, stdlib-free, identical everywhere. */
uint64_t
Mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** 53-bit uniform in [0, 1) from a hash. */
double
U01(uint64_t x)
{
    return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

/** Fraction of the action's window elapsed at time @p t_s, in [0, 1]. */
double
WindowProgress(const ScenarioAction& action, double t_s)
{
    if (action.duration_s <= 0.0) {
        return t_s >= action.start_s ? 1.0 : 0.0;
    }
    const double raw = (t_s - action.start_s) / action.duration_s;
    return std::clamp(raw, 0.0, 1.0);
}

bool
InWindow(const ScenarioAction& action, double t_s)
{
    return t_s >= action.start_s && t_s < action.start_s + action.duration_s;
}

}  // namespace

bool
IsTimingClass(FaultClass cls)
{
    switch (cls) {
    case FaultClass::kTickJitterStorm:
    case FaultClass::kTickOverrun:
    case FaultClass::kSuspendResume:
    case FaultClass::kClockSkew:
        return true;
    default:
        return false;
    }
}

TimingFaultPlan
ExtractTimingPlan(const ChaosScenario& scenario, double period_hint_s)
{
    TimingFaultPlan plan;
    plan.seed = scenario.seed;
    plan.period_hint_s = period_hint_s;
    for (const ScenarioAction& action : scenario.actions) {
        if (IsTimingClass(action.cls)) {
            plan.actions.push_back(action);
        }
    }
    return plan;
}

TimingFaultPlatform::TimingFaultPlatform(platform::Platform* inner,
                                         TimingFaultPlan plan)
    : ForwardingPlatform(inner),
      plan_(std::move(plan)),
      clock_(&inner->clock(), &plan_)
{
}

SimTime
TimingFaultPlatform::PerturbedClock::Now()
{
    const SimTime base = base_->Now();
    const double t_s = base.seconds();
    double skew_s = 0.0;
    for (const ScenarioAction& action : plan_->actions) {
        if (action.cls != FaultClass::kClockSkew) {
            continue;
        }
        skew_s += action.intensity * kSkewPeriodsPerWindow *
                  plan_->period_hint_s * WindowProgress(action, t_s);
    }
    const SimTime candidate = base + SimTime::FromSecondsF(skew_s);
    last_ = std::max(last_, candidate);
    return last_;
}

platform::TickHandle
TimingFaultPlatform::PerturbedClock::ScheduleTick(SimTime when,
                                                  std::function<void()> fn)
{
    // The deadline is on this clock; the inner clock runs behind it by the
    // skew in force (zero until the first kClockSkew window opens).
    when = when - (Now() - base_->Now());
    const double t_s = when.seconds();
    const double period_s = plan_->period_hint_s;
    double delay_s = 0.0;
    double suspend_floor_s = 0.0;
    for (size_t i = 0; i < plan_->actions.size(); ++i) {
        const ScenarioAction& action = plan_->actions[i];
        if (!InWindow(action, t_s)) {
            continue;
        }
        switch (action.cls) {
        case FaultClass::kTickJitterStorm: {
            // Per-tick uniform delay, keyed to (seed, deadline, action) so a
            // replay — at any worker count — draws the same lateness.
            const uint64_t h = Mix64(plan_->seed ^
                                     Mix64(static_cast<uint64_t>(when.micros())
                                           << 8 |
                                           static_cast<uint64_t>(i)));
            delay_s += U01(h) * action.intensity * kJitterPeriods * period_s;
            break;
        }
        case FaultClass::kTickOverrun:
            delay_s += action.intensity * kOverrunPeriods * period_s;
            break;
        case FaultClass::kSuspendResume:
            // The SoC sleeps through the rest of the window; the tick is
            // delivered at resume.
            suspend_floor_s = std::max(suspend_floor_s,
                                       action.start_s + action.duration_s);
            break;
        case FaultClass::kClockSkew:
            break;  // Acts on the clock, not tick delivery.
        default:
            break;
        }
    }
    SimTime deliver = when + SimTime::FromSecondsF(delay_s);
    deliver = std::max(deliver, SimTime::FromSecondsF(suspend_floor_s));
    return base_->ScheduleTick(deliver, std::move(fn));
}

}  // namespace aeo::chaos
