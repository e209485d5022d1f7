/**
 * @file
 * Simulator-backed implementations of the Clock/TickScheduler seam. These
 * are the "real" time sources in this repo: SimPlatform hands them to the
 * controller, and chaos decorators wrap them to perturb delivery.
 */
#ifndef AEO_PLATFORM_SIM_CLOCK_H_
#define AEO_PLATFORM_SIM_CLOCK_H_

#include <algorithm>
#include <functional>
#include <utility>

#include "platform/clock.h"
#include "sim/simulator.h"

namespace aeo::platform {

/** Clock over the discrete-event Simulator's virtual time. */
class SimClock final : public Clock {
  public:
    explicit SimClock(Simulator* sim) : sim_(sim) {}

    SimTime Now() override { return sim_->Now(); }

  private:
    Simulator* sim_;
};

/**
 * TickScheduler over the Simulator event queue. TickHandle identity-maps
 * EventId (both reserve 0 as the dead value). Deadlines already in the
 * past — e.g. after a decorator-injected suspend gap — are clamped to
 * "now" because Simulator::ScheduleAt requires when >= Now().
 */
class SimTickScheduler final : public TickScheduler {
  public:
    static_assert(kInvalidTickHandle == kInvalidEventId,
                  "TickHandle identity-maps EventId");

    explicit SimTickScheduler(Simulator* sim) : sim_(sim) {}

    TickHandle ScheduleTick(SimTime when, std::function<void()> fn) override {
        return sim_->ScheduleAt(std::max(when, sim_->Now()), std::move(fn));
    }

    void CancelTick(TickHandle handle) override { sim_->Cancel(handle); }

  private:
    Simulator* sim_;
};

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_SIM_CLOCK_H_
