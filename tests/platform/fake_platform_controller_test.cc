/**
 * @file
 * OnlineController driven entirely through a FakePlatform: no Device, no
 * sysfs tree, no kernel models. Proves the controller's policy logic —
 * governor pinning, overhead accounting, degraded mode, clamp learning,
 * safe mode, the watchdog/probe/re-engage path — is reachable and testable
 * through the aeo::platform seam alone.
 */
#include "core/online_controller.h"

#include <gtest/gtest.h>

#include "platform/fake_platform.h"

namespace aeo {
namespace {

using platform::DwellDelivery;
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

/** A delivery record whose CPU write silently landed on @p delivered. */
DwellDelivery
ClampedDwell(int requested, int delivered)
{
    DwellDelivery dwell;
    dwell.requested_config = SystemConfig{requested, kBwDefaultGovernor};
    dwell.seconds = 2.0;
    dwell.cpu.attempted = true;
    dwell.cpu.write_ok = true;
    dwell.cpu.verified = true;
    dwell.cpu.requested_level = requested;
    dwell.cpu.delivered_level = delivered;
    return dwell;
}

TEST(FakePlatformControllerTest, StartConfiguresThePlatform)
{
    FakePlatform plat;
    ControllerConfig config = BaseConfig();
    config.min_dwell = SimTime::Millis(400);
    OnlineController controller(&plat, ThreeRowTable(), config);

    // Construction already pushes the actuation tuning down.
    EXPECT_EQ(plat.fake_actuator().min_dwell(), SimTime::Millis(400));
    EXPECT_TRUE(plat.fake_actuator().readback_verification());

    controller.Start();
    ASSERT_EQ(plat.governor_log().size(), 1u);
    EXPECT_EQ(plat.governor_log().front(), "pin(bw=0,gpu=0)");  // CPU-only
    EXPECT_TRUE(plat.sampling());
    EXPECT_GT(plat.overhead_mw(), 0.0);
    EXPECT_EQ(plat.fake_actuator().apply_count(), 1u);  // initial schedule

    controller.Stop();
    EXPECT_FALSE(plat.sampling());
    EXPECT_EQ(plat.overhead_mw(), 0.0);
}

TEST(FakePlatformControllerTest, PlausibleWindowsKeepTheLoopNormal)
{
    FakePlatform plat;
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    for (int i = 0; i < 4; ++i) {
        plat.PushPerfWindow(0.1, 100);
        plat.PushPowerMw(1200.0);
    }
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(9));
    controller.Stop();

    EXPECT_EQ(controller.cycle_count(), 4u);
    EXPECT_EQ(controller.degraded_cycle_count(), 0u);
    EXPECT_EQ(controller.state(), ControllerState::kNormal);
    EXPECT_EQ(controller.machine().illegal_dispatch_count(), 0u);
    // One apply at Start plus one per cycle.
    EXPECT_EQ(plat.fake_actuator().apply_count(), 5u);
    for (const ControlCycleRecord& record : controller.history()) {
        EXPECT_FALSE(record.degraded);
        EXPECT_EQ(record.perf_samples, 100u);
        EXPECT_DOUBLE_EQ(record.measured_power_mw.value(), 1200.0);
        EXPECT_DOUBLE_EQ(record.temp_c, 25.0);  // the fake's default
        EXPECT_EQ(record.cpu_cap_level, -1);    // uncapped
    }
}

TEST(FakePlatformControllerTest, EmptyWindowsRunDegradedAndHoldTheEstimate)
{
    FakePlatform plat;
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    controller.Start();  // perf queue left empty: every window has 0 samples
    const double estimate = controller.base_speed_estimate();
    plat.sim().RunUntil(SimTime::FromSeconds(9));
    controller.Stop();

    ASSERT_EQ(controller.cycle_count(), 4u);
    EXPECT_EQ(controller.degraded_cycle_count(), 4u);
    EXPECT_EQ(controller.state(), ControllerState::kDegraded);
    EXPECT_DOUBLE_EQ(controller.base_speed_estimate(), estimate);
    EXPECT_FALSE(controller.fallback_engaged());
}

TEST(FakePlatformControllerTest, WatchdogTripsProbesAndReengages)
{
    FakePlatform plat;
    ControllerConfig config = BaseConfig();  // K = 3, probe every 5 cycles
    OnlineController controller(&plat, ThreeRowTable(), config);
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(3));

    // Three consecutive failed applies: the next cycle trips the watchdog.
    plat.fake_actuator().ScriptConsecutiveFailures(3);
    plat.sim().RunUntil(SimTime::FromSeconds(5));
    EXPECT_TRUE(controller.fallback_engaged());
    EXPECT_EQ(controller.state(), ControllerState::kProbe);
    EXPECT_EQ(plat.governor_log().back(), "restore-stock");
    EXPECT_FALSE(plat.sampling());
    EXPECT_GE(plat.fake_actuator().cancel_count(), 1u);

    // One unhealthy probe restarts the quorum; three healthy ones re-engage.
    plat.fake_actuator().ScriptConsecutiveFailures(0);
    plat.fake_actuator().PushProbeResult(false);
    const size_t cycles_at_trip = controller.cycle_count();
    plat.sim().RunUntil(SimTime::FromSeconds(5 + 4 * 10));
    EXPECT_EQ(controller.reengage_count(), 1u);
    EXPECT_FALSE(controller.fallback_engaged());
    EXPECT_EQ(controller.state(), ControllerState::kNormal);
    EXPECT_EQ(plat.fake_actuator().probe_count(), 4u);
    EXPECT_EQ(plat.fake_actuator().reset_count(), 1u);
    // Control is genuinely back: governors re-pinned, cycles accumulating.
    EXPECT_EQ(plat.governor_log().back(), "pin(bw=0,gpu=0)");
    plat.sim().RunUntil(SimTime::FromSeconds(5 + 4 * 10 + 4));
    EXPECT_GT(controller.cycle_count(), cycles_at_trip);
}

TEST(FakePlatformControllerTest, TerminalFallbackWithoutReengagement)
{
    FakePlatform plat;
    ControllerConfig config = BaseConfig();
    config.reengage = false;
    OnlineController controller(&plat, ThreeRowTable(), config);
    controller.Start();
    plat.fake_actuator().ScriptConsecutiveFailures(3);
    plat.sim().RunUntil(SimTime::FromSeconds(5));

    EXPECT_EQ(controller.state(), ControllerState::kFallbackStock);
    plat.sim().RunUntil(SimTime::FromSeconds(60));
    EXPECT_EQ(plat.fake_actuator().probe_count(), 0u);
    EXPECT_EQ(controller.reengage_count(), 0u);
    EXPECT_EQ(controller.state(), ControllerState::kFallbackStock);
}

TEST(FakePlatformControllerTest, PersistentClampMasksTheWorkingTable)
{
    FakePlatform plat;
    ControllerConfig config = BaseConfig();
    // Target the top row (speedup 1.6): once the clamp masks it away, the
    // held requirement exceeds the masked ceiling and safe mode engages.
    config.target_gips = 0.16;
    OnlineController controller(&plat, ThreeRowTable(), config);
    // Every cycle's delivery record shows level 2 silently landing on 1 —
    // the debounce (cap_confirm_cycles = 2) wants two cycles of evidence.
    plat.fake_actuator().ScriptDeliveries({ClampedDwell(2, 1)});
    controller.Start();

    plat.sim().RunUntil(SimTime::FromSeconds(3));  // 1 cycle: evidence only
    EXPECT_EQ(controller.working_table().size(), 3u);

    plat.sim().RunUntil(SimTime::FromSeconds(5));  // 2nd cycle: cap engages
    EXPECT_EQ(controller.working_table().size(), 2u);
    EXPECT_DOUBLE_EQ(controller.working_table().max_speedup(), 1.3);

    // Safe mode: the regulator wants more than the masked ceiling offers
    // (degraded cycles hold the initial required speedup of 1.6).
    EXPECT_GT(controller.safe_mode_cycle_count(), 0u);
    EXPECT_EQ(controller.state(), ControllerState::kSafeMode);

    // Clamp evidence gone: the cap expires after kCapRecheckCycles and the
    // full table returns.
    plat.fake_actuator().ScriptDeliveries({});
    plat.sim().RunUntil(SimTime::FromSeconds(5 + 2 * 6));
    EXPECT_EQ(controller.working_table().size(), 3u);
    controller.Stop();
}

TEST(FakePlatformControllerTest, PolicyCapMasksWithoutDebounce)
{
    FakePlatform plat;
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    // scaling_max_freq already advertises the ceiling: no debounce needed.
    plat.ScriptCpuCapLevel(0);
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(3));

    EXPECT_EQ(controller.working_table().size(), 1u);
    ASSERT_FALSE(controller.history().empty());
    EXPECT_EQ(controller.history().back().cpu_cap_level, 0);
    controller.Stop();
}

TEST(FakePlatformControllerTest, ScriptedThermalsLandInTheCycleRecords)
{
    FakePlatform plat;
    OnlineController controller(&plat, ThreeRowTable(), BaseConfig());
    plat.ScriptTempC(41.5);
    controller.Start();
    plat.sim().RunUntil(SimTime::FromSeconds(3));
    controller.Stop();

    ASSERT_FALSE(controller.history().empty());
    EXPECT_DOUBLE_EQ(controller.history().back().temp_c, 41.5);
}

}  // namespace
}  // namespace aeo
