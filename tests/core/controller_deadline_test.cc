/**
 * @file
 * Controller-side deadline policy, driven through a FakePlatform whose
 * clock delivers control ticks late on request: jitter stays a healthy
 * cycle, a suspend gap quarantines the stale window (estimate held,
 * watchdog strikes forgiven), a deadline storm degrades to the stock
 * governors and is observed as one record past the history, and
 * suspend_resync=false re-opens the pre-hardening behaviour the chaos
 * monitors exist to catch.
 */
#include "core/online_controller.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "platform/fake_platform.h"

namespace aeo {
namespace {

using platform::FakePlatform;

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
    FakePlatform plat;
    // 400 ms late on the 2 s cycle: 0.2 periods, inside the tolerance.
    plat.PushTickDelay(SimTime::Millis(400));
    for (int i = 0; i < 3; ++i) {
        plat.PushPerfWindow(0.1, 100);
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
    FakePlatform plat;
    // Tick 1 on time; tick 2 sleeps 30 s past its deadline (15 epochs).
    plat.PushTickDelay(SimTime::Zero());
    plat.PushTickDelay(SimTime::FromSeconds(30));
    for (int i = 0; i < 3; ++i) {
        plat.PushPerfWindow(0.1, 100);
    }
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    controller.Start();

    // Plant watchdog strikes before the sleep: the gap must forgive them.
    plat.sim().RunUntil(SimTime::FromSeconds(3));
    ASSERT_EQ(controller.cycle_count(), 1u);
    const double estimate = controller.base_speed_estimate();
    plat.fake_actuator().ScriptConsecutiveFailures(3);

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
    EXPECT_GE(plat.fake_actuator().reset_count(), 1u);
    EXPECT_EQ(plat.fake_actuator().consecutive_failed_applies(), 0);
}

TEST(ControllerDeadlineTest, DeadlineStormDegradesToStockGovernors)
{
    FakePlatform plat;
    // Every tick 3 s late on the 2 s cycle: 1.5 periods, a missed epoch
    // each time. The fourth consecutive miss reaches the storm threshold.
    for (int i = 0; i < 4; ++i) {
        plat.PushTickDelay(SimTime::FromSeconds(3));
        plat.PushPerfWindow(0.1, 100);
    }
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    std::vector<ControlCycleRecord> observed;
    bool last_observed_fallback = false;
    controller.AddCycleObserver(
        [&](const ControlCycleRecord& record,
            const std::vector<platform::DwellDelivery>&) {
            observed.push_back(record);
            last_observed_fallback = controller.fallback_engaged();
        });
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(20));

    EXPECT_TRUE(controller.fallback_engaged());
    EXPECT_EQ(controller.deadline_stats().missed, 4);
    // The storm tick aborts before measuring: only the first three misses
    // completed as control cycles, but all four are accounted.
    EXPECT_EQ(controller.cycle_count(), 3u);
    EXPECT_EQ(controller.deadline_miss_cycle_count(), 4u);
    // Observers see the storm tick too, as one record past the history,
    // already in fallback: the tick fired at 17 s, 3 s late.
    ASSERT_EQ(observed.size(), controller.cycle_count() + 1);
    EXPECT_TRUE(last_observed_fallback);
    EXPECT_DOUBLE_EQ(observed.back().time_s, 17.0);
    EXPECT_EQ(observed.back().tick_kind, platform::TickKind::kMissed);
    EXPECT_NEAR(observed.back().tick_lateness_s, 3.0, 1e-9);
    const std::vector<std::string>& log = plat.governor_log();
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log.back(), "restore-stock");
}

TEST(ControllerDeadlineTest, SuspendResyncOffReopensTheStaleActuationBug)
{
    FakePlatform plat;
    plat.PushTickDelay(SimTime::Zero());
    plat.PushTickDelay(SimTime::FromSeconds(30));
    for (int i = 0; i < 3; ++i) {
        plat.PushPerfWindow(0.1, 100);
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
    EXPECT_EQ(plat.fake_actuator().reset_count(), 0u);
}

}  // namespace
}  // namespace aeo
