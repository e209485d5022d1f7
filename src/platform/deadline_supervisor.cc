#include "platform/deadline_supervisor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace aeo::platform {

const char*
TickKindName(TickKind kind)
{
    switch (kind) {
    case TickKind::kOnTime:
        return "on-time";
    case TickKind::kJitter:
        return "jitter";
    case TickKind::kMissed:
        return "missed";
    case TickKind::kSuspendGap:
        return "suspend-gap";
    }
    return "unknown";
}

DeadlineSupervisor::DeadlineSupervisor(Clock* clock,
                                       std::function<void(const TickInfo&)> fn)
    : clock_(clock), fn_(std::move(fn))
{
    AEO_ASSERT(clock_ != nullptr, "DeadlineSupervisor needs a clock");
    AEO_ASSERT(fn_ != nullptr, "DeadlineSupervisor needs a callback");
}

DeadlineSupervisor::~DeadlineSupervisor()
{
    Stop();
}

void
DeadlineSupervisor::Start(SimTime period)
{
    AEO_ASSERT(period > SimTime::Zero(), "period must be positive");
    Stop();
    period_ = period;
    running_ = true;
    consecutive_misses_ = 0;
    ScheduleNext(clock_->Now() + period_);
}

void
DeadlineSupervisor::Stop()
{
    if (pending_ != kInvalidTickHandle) {
        clock_->CancelTick(pending_);
        pending_ = kInvalidTickHandle;
    }
    running_ = false;
    // Invalidate any tick already mid-delivery so a restart from inside the
    // callback can never be double-fired by the stale schedule.
    ++generation_;
}

void
DeadlineSupervisor::ScheduleNext(SimTime deadline)
{
    next_deadline_ = deadline;
    pending_ = clock_->ScheduleTick(deadline,
                                    [this, gen = generation_] { Fire(gen); });
}

void
DeadlineSupervisor::Fire(uint64_t generation)
{
    if (generation != generation_ || !running_) {
        return;
    }
    pending_ = kInvalidTickHandle;

    TickInfo info;
    info.scheduled = next_deadline_;
    info.actual = clock_->Now();
    info.lateness = std::max(info.actual - info.scheduled, SimTime::Zero());

    const int64_t period_us = period_.micros();
    const int64_t lateness_us = info.lateness.micros();
    const auto periods_late =
        static_cast<double>(lateness_us) / static_cast<double>(period_us);
    if (lateness_us == 0) {
        info.kind = TickKind::kOnTime;
    } else if (periods_late >= kSuspendGapPeriods) {
        info.kind = TickKind::kSuspendGap;
    } else if (periods_late <= kJitterTolerance) {
        info.kind = TickKind::kJitter;
    } else {
        info.kind = TickKind::kMissed;
    }
    info.epochs_skipped = lateness_us / period_us;

    if (info.kind == TickKind::kMissed) {
        ++consecutive_misses_;
    } else {
        consecutive_misses_ = 0;
    }
    info.consecutive_misses = consecutive_misses_;

    ++stats_.ticks;
    switch (info.kind) {
    case TickKind::kOnTime:
        ++stats_.on_time;
        break;
    case TickKind::kJitter:
        ++stats_.jitter;
        break;
    case TickKind::kMissed:
        ++stats_.missed;
        break;
    case TickKind::kSuspendGap:
        ++stats_.suspend_gaps;
        break;
    }
    stats_.epochs_skipped += info.epochs_skipped;
    stats_.max_lateness = std::max(stats_.max_lateness, info.lateness);

    // Reschedule before delivering, mirroring PeriodicTask: the callback may
    // Stop() or restart us, and same-timestamp event order stays identical
    // to the pre-seam control loop on a clean clock. The next deadline is
    // the first grid point strictly after `actual` (floor(lateness/p) + 1
    // periods past the old deadline).
    ScheduleNext(info.scheduled + period_ * (info.epochs_skipped + 1));
    fn_(info);
}

}  // namespace aeo::platform
