/**
 * @file
 * Controller-side deadline policy, driven through a FakePlatform whose
 * TickScheduler delivers control ticks late on request: jitter stays a
 * healthy cycle, a suspend gap quarantines the stale window (estimate
 * held, watchdog strikes forgiven), a deadline storm degrades to the
 * stock governors, and suspend_resync=false re-opens the pre-hardening
 * behaviour the chaos monitors exist to catch.
 */
#include "core/online_controller.h"

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "platform/clock.h"
#include "platform/fake_platform.h"

namespace aeo {
namespace {

using platform::FakePlatform;

/** Forwards to the fake's scheduler, adding one scripted delay per tick. */
class DelayingScheduler final : public platform::TickScheduler {
  public:
    explicit DelayingScheduler(platform::TickScheduler* base) : base_(base) {}

    platform::TickHandle ScheduleTick(SimTime when,
                                      std::function<void()> fn) override
    {
        SimTime delay = SimTime::Zero();
        if (!delays_.empty()) {
            delay = delays_.front();
            delays_.pop_front();
        }
        return base_->ScheduleTick(when + delay, std::move(fn));
    }

    void CancelTick(platform::TickHandle handle) override
    {
        base_->CancelTick(handle);
    }

    /** Queues the delay applied to the next scheduled tick (FIFO). */
    void PushDelay(SimTime delay) { delays_.push_back(delay); }

  private:
    platform::TickScheduler* base_;
    std::deque<SimTime> delays_;
};

/** A FakePlatform whose control ticks can be delivered late. */
class JitteryPlatform final : public platform::Platform {
  public:
    JitteryPlatform() : scheduler_(&fake_.ticks()) {}

    Simulator& sim() { return fake_.sim(); }
    platform::Clock& clock() override { return fake_.clock(); }
    platform::TickScheduler& ticks() override { return scheduler_; }
    platform::PerfReader& perf() override { return fake_.perf(); }
    platform::Actuator& actuator() override { return fake_.actuator(); }
    platform::GovernorControl& governors() override
    {
        return fake_.governors();
    }
    platform::Thermals& thermals() override { return fake_.thermals(); }
    int max_cpu_level() const override { return fake_.max_cpu_level(); }
    void SetControllerOverheadPower(double mw) override
    {
        fake_.SetControllerOverheadPower(mw);
    }
    void Sync() override { fake_.Sync(); }

    FakePlatform& fake() { return fake_; }
    DelayingScheduler& delays() { return scheduler_; }

  private:
    FakePlatform fake_;
    DelayingScheduler scheduler_;
};

ProfileTable
ThreeRowTable()
{
    std::vector<ProfileEntry> entries = {
        {SystemConfig{0, kBwDefaultGovernor}, 1.0, Milliwatts(1000.0)},
        {SystemConfig{1, kBwDefaultGovernor}, 1.3, Milliwatts(1300.0)},
        {SystemConfig{2, kBwDefaultGovernor}, 1.6, Milliwatts(1700.0)},
    };
    return ProfileTable("fake", std::move(entries), 0.1);
}

ControllerConfig
BaseConfig()
{
    ControllerConfig config;
    config.target_gips = 0.1;
    return config;
}

TEST(ControllerDeadlineTest, JitterTickStaysAHealthyCycle)
{
    JitteryPlatform plat;
    // 400 ms late on the 2 s cycle: 0.2 periods, inside the tolerance.
    plat.delays().PushDelay(SimTime::Millis(400));
    for (int i = 0; i < 3; ++i) {
        plat.fake().PushPerfWindow(0.1, 100);
    }
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(7));
    controller.Stop();

    ASSERT_GE(controller.cycle_count(), 2u);
    EXPECT_EQ(controller.deadline_stats().jitter, 1);
    EXPECT_EQ(controller.deadline_miss_cycle_count(), 0u);
    EXPECT_EQ(controller.degraded_cycle_count(), 0u);
    EXPECT_EQ(controller.history()[0].tick_kind, platform::TickKind::kJitter);
    EXPECT_NEAR(controller.history()[0].tick_lateness_s, 0.4, 1e-9);
    EXPECT_FALSE(controller.history()[0].stale_guard);
    EXPECT_EQ(controller.machine().illegal_dispatch_count(), 0u);
}

TEST(ControllerDeadlineTest, SuspendGapQuarantinesTheStaleWindow)
{
    JitteryPlatform plat;
    // Tick 1 on time; tick 2 sleeps 30 s past its deadline (15 epochs).
    plat.delays().PushDelay(SimTime::Zero());
    plat.delays().PushDelay(SimTime::FromSeconds(30));
    for (int i = 0; i < 3; ++i) {
        plat.fake().PushPerfWindow(0.1, 100);
    }
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    controller.Start();

    // Plant watchdog strikes before the sleep: the gap must forgive them.
    plat.sim().RunUntil(SimTime::FromSeconds(3));
    ASSERT_EQ(controller.cycle_count(), 1u);
    const double estimate = controller.base_speed_estimate();
    plat.fake().fake_actuator().ScriptConsecutiveFailures(3);

    plat.sim().RunUntil(SimTime::FromSeconds(35));
    controller.Stop();

    ASSERT_EQ(controller.cycle_count(), 2u);
    const ControlCycleRecord& gap = controller.history()[1];
    EXPECT_EQ(gap.tick_kind, platform::TickKind::kSuspendGap);
    EXPECT_EQ(gap.epochs_skipped, 15);
    EXPECT_TRUE(gap.stale_guard);
    EXPECT_TRUE(gap.degraded);
    EXPECT_GT(gap.perf_samples, 0u);  // the pre-suspend window did arrive

    EXPECT_EQ(controller.suspend_gap_cycle_count(), 1u);
    EXPECT_EQ(controller.stale_guard_cycle_count(), 1u);
    // The 30 s sleep neither fires the watchdog nor poisons the estimate.
    EXPECT_FALSE(controller.fallback_engaged());
    EXPECT_DOUBLE_EQ(controller.base_speed_estimate(), estimate);
    // The pre-suspend strikes were explicitly forgiven.
    EXPECT_GE(plat.fake().fake_actuator().reset_count(), 1u);
    EXPECT_EQ(plat.fake().fake_actuator().consecutive_failed_applies(), 0);
}

TEST(ControllerDeadlineTest, DeadlineStormDegradesToStockGovernors)
{
    JitteryPlatform plat;
    // Every tick 3 s late on the 2 s cycle: 1.5 periods, a missed epoch
    // each time. The second consecutive miss reaches the storm threshold.
    for (int i = 0; i < 6; ++i) {
        plat.delays().PushDelay(SimTime::FromSeconds(3));
        plat.fake().PushPerfWindow(0.1, 100);
    }
    ControllerConfig config = BaseConfig();
    config.deadline_storm_threshold = 2;
    OnlineController controller(&plat, ThreeRowTable(), config);
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(20));

    EXPECT_TRUE(controller.fallback_engaged());
    EXPECT_EQ(controller.deadline_stats().missed, 2);
    // The storm cycle aborts before measuring: only the first miss
    // completed as a control cycle, but both misses are accounted.
    EXPECT_EQ(controller.cycle_count(), 1u);
    EXPECT_EQ(controller.deadline_miss_cycle_count(), 2u);
    const std::vector<std::string>& log = plat.fake().governor_log();
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log.back(), "restore-stock");
}

TEST(ControllerDeadlineTest, SuspendResyncOffReopensTheStaleActuationBug)
{
    JitteryPlatform plat;
    plat.delays().PushDelay(SimTime::Zero());
    plat.delays().PushDelay(SimTime::FromSeconds(30));
    for (int i = 0; i < 3; ++i) {
        plat.fake().PushPerfWindow(0.1, 100);
    }
    ControllerConfig config = BaseConfig();
    config.suspend_resync = false;  // pre-hardening behaviour
    OnlineController controller(&plat, ThreeRowTable(), config);
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(35));
    controller.Stop();

    ASSERT_EQ(controller.cycle_count(), 2u);
    const ControlCycleRecord& gap = controller.history()[1];
    // Classification is still recorded...
    EXPECT_EQ(gap.tick_kind, platform::TickKind::kSuspendGap);
    EXPECT_EQ(controller.suspend_gap_cycle_count(), 1u);
    // ...but the stale window steers the loop: no guard, not degraded.
    EXPECT_FALSE(gap.stale_guard);
    EXPECT_FALSE(gap.degraded);
    EXPECT_EQ(controller.stale_guard_cycle_count(), 0u);
    EXPECT_EQ(plat.fake().fake_actuator().reset_count(), 0u);
}

}  // namespace
}  // namespace aeo
