/**
 * @file
 * The simulation executive: owns the clock and the event queue and runs
 * events in time order until a stop condition. It also keeps one virtual
 * sample clock, a repeating tick that occupies no queue record (see
 * StartSampleClock and DESIGN.md §14 "Batched power sampling").
 */
#ifndef AEO_SIM_SIMULATOR_H_
#define AEO_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace aeo {

/** Event-driven simulation executive. */
class Simulator {
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    SimTime Now() const { return now_; }

    /** Schedules @p fn after @p delay (≥ 0) from now. */
    template <typename F>
    EventId
    ScheduleAfter(SimTime delay, F&& fn)
    {
        AEO_ASSERT(delay >= SimTime::Zero(), "negative delay %lld us",
                   static_cast<long long>(delay.micros()));
        return queue_.Schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedules @p fn at absolute time @p when (≥ now). */
    template <typename F>
    EventId
    ScheduleAt(SimTime when, F&& fn)
    {
        AEO_ASSERT(when >= now_, "scheduling in the past: %lld < %lld",
                   static_cast<long long>(when.micros()),
                   static_cast<long long>(now_.micros()));
        return queue_.Schedule(when, std::forward<F>(fn));
    }

    /**
     * Schedules @p fn to fire every @p period (> 0), first one period from
     * now, until the returned id is cancelled. The series occupies one slab
     * record that re-arms in place: steady-state firing performs zero heap
     * allocations and zero hash operations (DESIGN.md §14).
     */
    template <typename F>
    EventId
    ScheduleEvery(SimTime period, F&& fn)
    {
        AEO_ASSERT(period > SimTime::Zero(), "period must be positive");
        return queue_.ScheduleEvery(now_ + period, period,
                                    std::forward<F>(fn));
    }

    /** Cancels a pending event or repeating series; see EventQueue::Cancel. */
    bool Cancel(EventId id) { return queue_.Cancel(id); }

    /**
     * Runs events until simulated time reaches @p deadline, Stop() is called,
     * or the queue drains. The clock is left at min(deadline, stop time).
     */
    void RunUntil(SimTime deadline);

    /** Runs for @p duration from the current time. */
    void RunFor(SimTime duration) { RunUntil(now_ + duration); }

    /** Requests that the run loop return after the current event. */
    void Stop() { stop_requested_ = true; }

    /** True if Stop() ended the last run before its deadline. */
    bool stopped() const { return stop_requested_; }

    /** Events executed since construction. Sample-clock ticks are not
     * events and are not counted. */
    uint64_t executed_events() const { return queue_.executed_count(); }

    /**
     * Starts the sample clock: a repeating tick every @p period (> 0), first
     * one period from now. A tick is not an event; RunUntil only counts the
     * ticks it passes (sample_ticks()), in O(1). Ticks fall where a
     * ScheduleEvery(period) series armed now would in (when, seq) order:
     * each carries the queue's next seq from when its predecessor fired (the
     * first, from this call) and precedes a same-time event of equal or
     * higher seq. @p on_return runs whenever RunUntil returns, so the owner
     * can catch up. One clock per simulator.
     */
    void StartSampleClock(SimTime period, EventCallback on_return);

    /** Stops the sample clock. */
    void
    StopSampleClock()
    {
        clock_next_ = kNever;
        clock_on_return_.Reset();
    }

    /** True between StartSampleClock() and StopSampleClock(). */
    bool sample_clock_running() const { return clock_next_ != kNever; }

    /** Sample-clock ticks passed since StartSampleClock(). */
    uint64_t sample_ticks() const { return clock_ticks_; }

  private:
    /** clock_next_ while the sample clock is stopped: later than any event,
     * so one comparison skips the clock on every dispatch. */
    static constexpr SimTime kNever =
        SimTime::Micros(std::numeric_limits<int64_t>::max());

    /** Passes every sample-clock tick ordered before (@p when, @p seq);
     * called only when the next tick is due by @p when. */
    void AdvanceSampleClock(SimTime when, uint64_t seq);

    EventQueue queue_;
    SimTime now_;
    bool stop_requested_ = false;
    SimTime clock_period_;
    /** Time and seq of the next tick the clock has not passed; kNever while
     * the clock is stopped. */
    SimTime clock_next_ = kNever;
    uint64_t clock_next_seq_ = 0;
    uint64_t clock_ticks_ = 0;
    EventCallback clock_on_return_;
};

}  // namespace aeo

#endif  // AEO_SIM_SIMULATOR_H_
