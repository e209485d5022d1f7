/**
 * @file
 * The time seam of the platform boundary: policy code (src/core,
 * src/control) never reads the raw Simulator clock or schedules events
 * directly — it consumes time through this one narrow, decoratable
 * interface. That is what lets the chaos layer inject tick jitter,
 * handler overruns, suspend/resume gaps and monotonic-clock steps without
 * the controller knowing, and what DESIGN.md §13's deadline model hangs
 * off (the `time-seam` aeo-lint rule enforces the confinement).
 */
#ifndef AEO_PLATFORM_CLOCK_H_
#define AEO_PLATFORM_CLOCK_H_

#include <cstdint>
#include <functional>

#include "sim/time.h"

namespace aeo::platform {

/** Opaque handle to a pending tick; 0 is never a live tick. */
using TickHandle = uint64_t;

inline constexpr TickHandle kInvalidTickHandle = 0;

/**
 * Monotonic time source for the control loop, and one-shot deadline
 * scheduling for its ticks, on one time scale: a tick scheduled for
 * `when` fires no earlier than Now() reads `when`. On a real device this
 * would be CLOCK_MONOTONIC and a timer armed on it; here it is the
 * Simulator clock, possibly wrapped by a chaos decorator that steps the
 * clock or delivers ticks late (jitter, overrun, suspend deferral) — but a
 * decorator never delivers a tick early and never drops one. The
 * DeadlineSupervisor on top classifies the lateness. Now() never runs
 * backwards.
 */
class Clock {
  public:
    virtual ~Clock() = default;

    /** Current monotonic time. */
    virtual SimTime Now() = 0;

    /**
     * Schedules @p fn to run once Now() reads @p when (a deadline already
     * in the past runs as soon as possible). Returns a handle for
     * CancelTick(); the handle is dead once the tick has fired.
     */
    virtual TickHandle ScheduleTick(SimTime when,
                                    std::function<void()> fn) = 0;

    /** Cancels a pending tick; cancelling a dead handle is a no-op. */
    virtual void CancelTick(TickHandle handle) = 0;
};

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_CLOCK_H_
