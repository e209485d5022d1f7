/**
 * @file
 * DeadlineSupervisor: the periodic control tick, rebuilt on the
 * Clock/TickScheduler seam with deadline awareness. Where the old
 * sim::PeriodicTask simply refired every `period`, the supervisor keeps an
 * explicit deadline grid, measures how late each tick was actually
 * delivered, classifies the lateness (on-time / jitter / missed /
 * suspend-gap against the fixed thresholds below), and resyncs the next
 * deadline to the first grid point after the tick: missed epochs are
 * dropped, never worked through as a backlog. The classification travels
 * to the callback as a TickInfo so the controller can adjust its
 * estimators and watchdog instead of silently consuming a stretched epoch.
 *
 * Scheduling order is deliberately identical to PeriodicTask: the next
 * tick is scheduled *before* the callback runs, so same-timestamp event
 * insertion order — and therefore every bit-identity bench snapshot — is
 * unchanged on a fault-free clock.
 */
#ifndef AEO_PLATFORM_DEADLINE_SUPERVISOR_H_
#define AEO_PLATFORM_DEADLINE_SUPERVISOR_H_

#include <cstdint>
#include <functional>

#include "platform/clock.h"
#include "sim/time.h"

namespace aeo::platform {

/** Lateness up to this fraction of a period is jitter (same epoch, usable
 * data). */
inline constexpr double kJitterTolerance = 0.25;
/** Lateness of at least this many periods is a suspend gap. */
inline constexpr double kSuspendGapPeriods = 3.0;
static_assert(kJitterTolerance >= 0.0, "jitter tolerance < 0");
static_assert(kSuspendGapPeriods > kJitterTolerance,
              "suspend threshold must exceed jitter tolerance");

/** How late a tick was, against kJitterTolerance and kSuspendGapPeriods. */
enum class TickKind {
    /** Delivered exactly on its deadline. */
    kOnTime,
    /** Late, but within the jitter tolerance — same epoch, usable data. */
    kJitter,
    /** Late past tolerance but short of a suspend gap: the epoch slipped. */
    kMissed,
    /** Late by >= kSuspendGapPeriods epochs: the SoC slept through. */
    kSuspendGap,
};

/** Stable lower-case name, for records and JSON. */
const char* TickKindName(TickKind kind);

/** Everything the callback learns about the tick that just fired. */
struct TickInfo {
    TickKind kind = TickKind::kOnTime;
    /** The deadline this tick was due at. */
    SimTime scheduled = SimTime::Zero();
    /** When it actually ran. */
    SimTime actual = SimTime::Zero();
    /** actual - scheduled; never negative. */
    SimTime lateness = SimTime::Zero();
    /** Whole deadline periods the lateness spans (0 for jitter). */
    int64_t epochs_skipped = 0;
    /** Run length of kMissed ticks ending at this one (storm detector). */
    int consecutive_misses = 0;
};

/** Cumulative counters across the supervisor's lifetime. */
struct DeadlineStats {
    int64_t ticks = 0;
    int64_t on_time = 0;
    int64_t jitter = 0;
    int64_t missed = 0;
    int64_t suspend_gaps = 0;
    int64_t epochs_skipped = 0;
    SimTime max_lateness = SimTime::Zero();
};

/**
 * Periodic deadline-tracked tick source. Not thread-safe; lives on the
 * simulator's (single) event thread like everything else in the loop.
 * Start() and Stop() are safe to call from inside the callback — a
 * restart mid-delivery invalidates the in-flight generation so the stale
 * schedule can never double-fire.
 */
class DeadlineSupervisor {
  public:
    DeadlineSupervisor(Clock* clock, TickScheduler* scheduler,
                       std::function<void(const TickInfo&)> fn);
    ~DeadlineSupervisor();

    DeadlineSupervisor(const DeadlineSupervisor&) = delete;
    DeadlineSupervisor& operator=(const DeadlineSupervisor&) = delete;

    /**
     * (Re)starts ticking every @p period (positive); the first deadline is
     * one period from now. Restarting cancels any pending tick first.
     */
    void Start(SimTime period);

    /** Cancels the pending tick; idempotent. */
    void Stop();

    bool running() const { return running_; }
    const DeadlineStats& stats() const { return stats_; }

  private:
    void Fire(uint64_t generation);
    void ScheduleNext(SimTime deadline);

    Clock* clock_;
    TickScheduler* scheduler_;
    std::function<void(const TickInfo&)> fn_;

    SimTime period_ = SimTime::Zero();
    bool running_ = false;
    TickHandle pending_ = kInvalidTickHandle;
    SimTime next_deadline_ = SimTime::Zero();
    int consecutive_misses_ = 0;
    DeadlineStats stats_;
    /** Bumped by Start/Stop; in-flight ticks from older generations no-op. */
    uint64_t generation_ = 0;
};

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_DEADLINE_SUPERVISOR_H_
