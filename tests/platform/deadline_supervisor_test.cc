/**
 * DeadlineSupervisor unit tests on a hand-cranked Clock double: every test
 * delivers ticks at exactly chosen times — on the deadline, a little late,
 * epochs late, or a suspend gap late — and asserts the classification, the
 * grid resync, and the restart-safety generation guard.
 */
#include "platform/deadline_supervisor.h"

#include <functional>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "platform/clock.h"
#include "sim/time.h"

namespace aeo::platform {
namespace {

/** A clock the test moves by hand; it parks ticks for the test to deliver
 * explicitly. */
class ManualClock final : public Clock {
  public:
    struct Pending {
        TickHandle handle = kInvalidTickHandle;
        SimTime when = SimTime::Zero();
        std::function<void()> fn;
        bool cancelled = false;
        bool fired = false;
    };

    SimTime Now() override { return now_; }

    TickHandle ScheduleTick(SimTime when, std::function<void()> fn) override
    {
        Pending pending;
        pending.handle = next_handle_++;
        pending.when = when;
        pending.fn = std::move(fn);
        ticks_.push_back(std::move(pending));
        return ticks_.back().handle;
    }

    void CancelTick(TickHandle handle) override
    {
        for (Pending& pending : ticks_) {
            if (pending.handle == handle) {
                pending.cancelled = true;
            }
        }
    }

    /** Live (not cancelled, not fired) pending ticks. */
    size_t live_count() const
    {
        size_t n = 0;
        for (const Pending& pending : ticks_) {
            if (!pending.cancelled && !pending.fired) {
                ++n;
            }
        }
        return n;
    }

    const Pending& last_live() const
    {
        for (auto it = ticks_.rbegin(); it != ticks_.rend(); ++it) {
            if (!it->cancelled && !it->fired) {
                return *it;
            }
        }
        static const Pending none;
        return none;
    }

    /** Sets the time to @p at and delivers the oldest live tick. */
    void Deliver(SimTime at)
    {
        for (Pending& pending : ticks_) {
            if (pending.cancelled || pending.fired) {
                continue;
            }
            pending.fired = true;
            now_ = at;
            // Copy: the callback may reschedule and grow ticks_.
            std::function<void()> fn = pending.fn;
            fn();
            return;
        }
        FAIL() << "no live tick to deliver";
    }

  private:
    SimTime now_ = SimTime::Zero();
    std::vector<Pending> ticks_;
    TickHandle next_handle_ = 1;
};

constexpr SimTime kOneSecond = SimTime::FromSeconds(1);

struct SupervisorFixture {
    ManualClock clock;
    std::vector<TickInfo> ticks;
    DeadlineSupervisor supervisor{
        &clock, [this](const TickInfo& info) { ticks.push_back(info); }};
};

TEST(DeadlineSupervisorTest, OnTimeTicksStayOnTheGrid)
{
    SupervisorFixture f;
    f.supervisor.Start(kOneSecond);

    for (int i = 1; i <= 3; ++i) {
        ASSERT_EQ(f.clock.live_count(), 1u);
        const SimTime due = f.clock.last_live().when;
        EXPECT_EQ(due, SimTime::FromSeconds(i));
        f.clock.Deliver(due);
    }

    ASSERT_EQ(f.ticks.size(), 3u);
    for (const TickInfo& info : f.ticks) {
        EXPECT_EQ(info.kind, TickKind::kOnTime);
        EXPECT_EQ(info.lateness, SimTime::Zero());
        EXPECT_EQ(info.epochs_skipped, 0);
        EXPECT_EQ(info.consecutive_misses, 0);
    }
    EXPECT_EQ(f.supervisor.stats().ticks, 3);
    EXPECT_EQ(f.supervisor.stats().on_time, 3);
}

TEST(DeadlineSupervisorTest, JitterWithinToleranceKeepsTheGrid)
{
    SupervisorFixture f;
    f.supervisor.Start(kOneSecond);

    // 200 ms late on a 1 s period: inside the 0.25 tolerance.
    f.clock.Deliver(SimTime::Millis(1200));
    ASSERT_EQ(f.ticks.size(), 1u);
    EXPECT_EQ(f.ticks[0].kind, TickKind::kJitter);
    EXPECT_EQ(f.ticks[0].lateness, SimTime::Millis(200));
    EXPECT_EQ(f.ticks[0].epochs_skipped, 0);

    // The next deadline is the undisturbed grid point, not now + period.
    EXPECT_EQ(f.clock.last_live().when, SimTime::FromSeconds(2));
    EXPECT_EQ(f.supervisor.stats().jitter, 1);
    EXPECT_EQ(f.supervisor.stats().max_lateness, SimTime::Millis(200));
}

TEST(DeadlineSupervisorTest, MissedTickResyncsToFirstGridPointAfterNow)
{
    SupervisorFixture f;
    f.supervisor.Start(kOneSecond);

    // 1.4 s late: one whole epoch slid past, resync to t=3s (the first
    // grid point strictly after 2.4 s).
    f.clock.Deliver(SimTime::Millis(2400));
    ASSERT_EQ(f.ticks.size(), 1u);
    EXPECT_EQ(f.ticks[0].kind, TickKind::kMissed);
    EXPECT_EQ(f.ticks[0].epochs_skipped, 1);
    EXPECT_EQ(f.ticks[0].consecutive_misses, 1);
    EXPECT_EQ(f.clock.last_live().when, SimTime::FromSeconds(3));
    EXPECT_EQ(f.supervisor.stats().missed, 1);
    EXPECT_EQ(f.supervisor.stats().epochs_skipped, 1);
}

TEST(DeadlineSupervisorTest, ConsecutiveMissesCountAndResetOnRecovery)
{
    SupervisorFixture f;
    f.supervisor.Start(kOneSecond);

    // Two misses in a row (each 0.5 s late), then an on-time tick.
    f.clock.Deliver(SimTime::Millis(1500));
    f.clock.Deliver(SimTime::Millis(2500));
    f.clock.Deliver(f.clock.last_live().when);

    ASSERT_EQ(f.ticks.size(), 3u);
    EXPECT_EQ(f.ticks[0].consecutive_misses, 1);
    EXPECT_EQ(f.ticks[1].consecutive_misses, 2);
    EXPECT_EQ(f.ticks[2].kind, TickKind::kOnTime);
    EXPECT_EQ(f.ticks[2].consecutive_misses, 0);
}

TEST(DeadlineSupervisorTest, SuspendGapClassifiesAndDoesNotCountAsMiss)
{
    SupervisorFixture f;
    f.supervisor.Start(kOneSecond);

    // A 30 s sleep on a 1 s period: a suspend gap, not a 30-deep miss
    // storm. The miss counter stays clear.
    f.clock.Deliver(SimTime::FromSeconds(31));
    ASSERT_EQ(f.ticks.size(), 1u);
    EXPECT_EQ(f.ticks[0].kind, TickKind::kSuspendGap);
    EXPECT_EQ(f.ticks[0].epochs_skipped, 30);
    EXPECT_EQ(f.ticks[0].consecutive_misses, 0);
    EXPECT_EQ(f.supervisor.stats().suspend_gaps, 1);
    EXPECT_EQ(f.supervisor.stats().missed, 0);

    // Resynced: next deadline is the first grid point after the gap.
    EXPECT_EQ(f.clock.last_live().when, SimTime::FromSeconds(32));
}

TEST(DeadlineSupervisorTest, ThresholdsSitAtAQuarterAndThreePeriods)
{
    // One tick per lateness, each on a fresh 1 s grid: 250 ms is the last
    // jitter, 251 ms a miss; 2.999 s is still a miss, 3 s a suspend gap.
    const std::pair<SimTime, TickKind> cases[] = {
        {SimTime::Millis(250), TickKind::kJitter},
        {SimTime::Millis(251), TickKind::kMissed},
        {SimTime::Millis(2999), TickKind::kMissed},
        {SimTime::Millis(3000), TickKind::kSuspendGap},
    };
    for (const auto& [lateness, kind] : cases) {
        SupervisorFixture f;
        f.supervisor.Start(kOneSecond);
        f.clock.Deliver(kOneSecond + lateness);
        ASSERT_EQ(f.ticks.size(), 1u);
        EXPECT_EQ(f.ticks[0].kind, kind) << lateness.micros() << " us late";
    }
}

TEST(DeadlineSupervisorTest, ReschedulesBeforeDeliveringTheCallback)
{
    ManualClock clock;
    size_t live_during_callback = 0;
    DeadlineSupervisor supervisor(&clock, [&](const TickInfo&) {
        live_during_callback = clock.live_count();
    });
    supervisor.Start(kOneSecond);
    clock.Deliver(SimTime::FromSeconds(1));
    // The next tick must already be scheduled when the callback runs —
    // the same-timestamp event-order contract PeriodicTask established.
    EXPECT_EQ(live_during_callback, 1u);
}

TEST(DeadlineSupervisorTest, StopCancelsThePendingTick)
{
    SupervisorFixture f;
    f.supervisor.Start(kOneSecond);
    EXPECT_EQ(f.clock.live_count(), 1u);
    f.supervisor.Stop();
    EXPECT_FALSE(f.supervisor.running());
    EXPECT_EQ(f.clock.live_count(), 0u);
    f.supervisor.Stop();  // idempotent
}

TEST(DeadlineSupervisorTest, RestartFromCallbackNeverDoubleFires)
{
    ManualClock clock;
    int fires = 0;
    DeadlineSupervisor* self = nullptr;
    DeadlineSupervisor supervisor(&clock, [&](const TickInfo&) {
        ++fires;
        if (fires == 1) {
            // Restart mid-delivery: the already-scheduled next tick is
            // from the old generation and must be dead.
            self->Start(SimTime::FromSeconds(2));
        }
    });
    self = &supervisor;
    supervisor.Start(kOneSecond);

    clock.Deliver(SimTime::FromSeconds(1));
    EXPECT_EQ(fires, 1);
    // Exactly one live tick (the restarted schedule), due at now + 2 s.
    ASSERT_EQ(clock.live_count(), 1u);
    EXPECT_EQ(clock.last_live().when, SimTime::FromSeconds(3));

    clock.Deliver(SimTime::FromSeconds(3));
    EXPECT_EQ(fires, 2);
}

TEST(DeadlineSupervisorTest, StaleGenerationTickIsSilentlyDropped)
{
    ManualClock clock;
    int fires = 0;
    DeadlineSupervisor supervisor(&clock, [&](const TickInfo&) { ++fires; });
    supervisor.Start(kOneSecond);

    // Capture the scheduled callback, then Stop: CancelTick marks it
    // cancelled, but even a clock that leaked the callback past the
    // cancel (a real race on device) is neutralized by the generation.
    supervisor.Stop();
    supervisor.Start(kOneSecond);
    EXPECT_EQ(clock.live_count(), 1u);
    clock.Deliver(SimTime::FromSeconds(1));
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(supervisor.stats().ticks, 1);
}

}  // namespace
}  // namespace aeo::platform
