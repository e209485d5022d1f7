#include "platform/config_scheduler.h"

#include <cstdlib>
#include <utility>

#include <gtest/gtest.h>

#include "core/profile_table.h"
#include "device/device.h"
#include "soc/exynos5433.h"

namespace aeo {
namespace {

using platform::ActuationPlan;
using platform::ConfigScheduler;
using platform::PlannedDwell;

ProfileTable
TwoConfigTable()
{
    std::vector<ProfileEntry> entries = {
        {SystemConfig{2, 0}, 1.0, Milliwatts(1000.0)},
        {SystemConfig{4, 4}, 1.5, Milliwatts(1500.0)},
    };
    return ProfileTable("sched-test", std::move(entries), 0.2);
}

class ConfigSchedulerTest : public ::testing::Test {
  protected:
    ConfigSchedulerTest() : scheduler_(&device_)
    {
        device_.UseUserspaceGovernors();
    }

    Device device_;
    ConfigScheduler scheduler_;
};

TEST_F(ConfigSchedulerTest, ApplyConfigNowSetsBothLevels)
{
    scheduler_.ApplyConfigNow(SystemConfig{9, 7});
    EXPECT_EQ(device_.cluster().level(), 9);
    EXPECT_EQ(device_.bus().level(), 7);
    EXPECT_EQ(scheduler_.write_count(), 2u);
}

TEST_F(ConfigSchedulerTest, CpuOnlyConfigLeavesBusAlone)
{
    device_.bus().SetLevel(5);
    scheduler_.ApplyConfigNow(SystemConfig{9, kBwDefaultGovernor});
    EXPECT_EQ(device_.cluster().level(), 9);
    EXPECT_EQ(device_.bus().level(), 5);
    EXPECT_EQ(scheduler_.write_count(), 1u);
}

TEST_F(ConfigSchedulerTest, TwoSlotScheduleSwitchesMidCycle)
{
    const ProfileTable table = TwoConfigTable();
    ActuationPlan plan;
    plan.push_back(PlannedDwell{table.entries()[0].config, 1.2});
    plan.push_back(PlannedDwell{table.entries()[1].config, 0.8});
    scheduler_.Apply(plan);

    // First slot applied immediately.
    EXPECT_EQ(device_.cluster().level(), 2);
    // Second slot applies 1.2 s into the cycle.
    device_.sim().RunUntil(SimTime::FromSecondsF(1.19));
    EXPECT_EQ(device_.cluster().level(), 2);
    device_.sim().RunUntil(SimTime::FromSecondsF(1.21));
    EXPECT_EQ(device_.cluster().level(), 4);
    EXPECT_EQ(device_.bus().level(), 4);
}

TEST_F(ConfigSchedulerTest, DwellsQuantizeToTheGrid)
{
    // 0.73 s rounds to 0.8 s on the 200 ms grid; the cycle total holds.
    const ProfileTable table = TwoConfigTable();
    ActuationPlan plan;
    plan.push_back(PlannedDwell{table.entries()[0].config, 0.73});
    plan.push_back(PlannedDwell{table.entries()[1].config, 1.27});
    scheduler_.Apply(plan);

    device_.sim().RunUntil(SimTime::FromSecondsF(0.79));
    EXPECT_EQ(device_.cluster().level(), 2);
    device_.sim().RunUntil(SimTime::FromSecondsF(0.81));
    EXPECT_EQ(device_.cluster().level(), 4);
}

TEST_F(ConfigSchedulerTest, SubDwellSlotMergesIntoTheOther)
{
    // 60 ms rounds to zero on the 200 ms grid: the whole cycle goes to the
    // other slot and no mid-cycle switch is scheduled.
    const ProfileTable table = TwoConfigTable();
    ActuationPlan plan;
    plan.push_back(PlannedDwell{table.entries()[0].config, 0.06});
    plan.push_back(PlannedDwell{table.entries()[1].config, 1.94});
    scheduler_.Apply(plan);

    EXPECT_EQ(device_.cluster().level(), 4);  // straight to the second slot
    const uint64_t transitions = device_.cluster().transition_count();
    device_.sim().RunUntil(SimTime::FromSeconds(3));
    EXPECT_EQ(device_.cluster().transition_count(), transitions);
}

TEST_F(ConfigSchedulerTest, ReapplyCancelsPendingSwitches)
{
    const ProfileTable table = TwoConfigTable();
    ActuationPlan plan;
    plan.push_back(PlannedDwell{table.entries()[0].config, 1.0});
    plan.push_back(PlannedDwell{table.entries()[1].config, 1.0});
    scheduler_.Apply(plan);
    // A new cycle arrives before the pending switch fires.
    ActuationPlan hold;
    hold.push_back(PlannedDwell{table.entries()[0].config, 2.0});
    scheduler_.Apply(hold);
    device_.sim().RunUntil(SimTime::FromSeconds(3));
    // The cancelled switch never happened.
    EXPECT_EQ(device_.cluster().level(), 2);
}

TEST_F(ConfigSchedulerTest, SingleSlotAppliesImmediately)
{
    const ProfileTable table = TwoConfigTable();
    ActuationPlan plan;
    plan.push_back(PlannedDwell{table.entries()[1].config, 2.0});
    scheduler_.Apply(plan);
    EXPECT_EQ(device_.cluster().level(), 4);
}

// --- Hardened actuation ----------------------------------------------------

DeviceConfig
FaultyDeviceConfig(FaultRule rule)
{
    DeviceConfig config;
    config.fault_rules.push_back(std::move(rule));
    return config;
}

std::string
SetspeedPath()
{
    return std::string(kCpufreqSysfsRoot) + "/scaling_setspeed";
}

TEST(ConfigSchedulerFaultTest, TransientWriteFailureIsRetriedToSuccess)
{
    FaultRule rule;
    rule.path_prefix = SetspeedPath();
    rule.fail_probability = 1.0;
    rule.errc = FaultErrc::kBusy;
    rule.max_triggers = 2;  // fail, fail, then clean
    Device device(FaultyDeviceConfig(rule));
    device.UseUserspaceGovernors();
    ConfigScheduler scheduler(&device);

    EXPECT_TRUE(scheduler.ApplyConfigNow(SystemConfig{9, kBwDefaultGovernor}));
    EXPECT_EQ(device.cluster().level(), 9);
    EXPECT_EQ(scheduler.stats().retries, 2u);
    EXPECT_EQ(scheduler.stats().failed_ops, 0u);
    EXPECT_EQ(scheduler.write_count(), 1u);
}

TEST(ConfigSchedulerFaultTest, RetryExhaustionCountsAFailedOp)
{
    FaultRule rule;
    rule.path_prefix = SetspeedPath();
    rule.fail_probability = 1.0;
    rule.errc = FaultErrc::kIo;
    Device device(FaultyDeviceConfig(rule));
    device.UseUserspaceGovernors();
    const int start_level = device.cluster().level();
    // Through a 1 s dwell the retry count binds, not the budget: 4 retries
    // (12 + 24 + 48 + 96 = 180 ms of backoff), and a fifth would still fit.
    ConfigScheduler scheduler(&device, SimTime::FromSeconds(1));

    EXPECT_FALSE(scheduler.ApplyConfigNow(SystemConfig{9, kBwDefaultGovernor}));
    EXPECT_EQ(device.cluster().level(), start_level);
    EXPECT_EQ(scheduler.stats().retries, 4u);
    EXPECT_EQ(scheduler.stats().failed_ops, 1u);
    EXPECT_EQ(scheduler.write_count(), 0u);
}

TEST(ConfigSchedulerFaultTest, BackoffStaysWithinTheDwellBudget)
{
    FaultRule rule;
    rule.path_prefix = SetspeedPath();
    rule.fail_probability = 1.0;
    rule.errc = FaultErrc::kBusy;
    // Through a 50 ms dwell only 2 of the 4 retries fit: 12 + 24 = 36 ms,
    // and the next 48 ms step would overrun the budget. 36 ms is exactly
    // the budget the second retry needs; at 35 ms it no longer fits.
    const std::pair<int, uint64_t> cases[] = {{50, 2}, {36, 2}, {35, 1}};
    for (const auto& [dwell_ms, retries] : cases) {
        Device device(FaultyDeviceConfig(rule));
        device.UseUserspaceGovernors();
        ConfigScheduler scheduler(&device, SimTime::Millis(dwell_ms));

        EXPECT_FALSE(scheduler.ApplyConfigNow(SystemConfig{9, kBwDefaultGovernor}));
        EXPECT_EQ(scheduler.stats().retries, retries) << dwell_ms << " ms dwell";
    }
}

TEST(ConfigSchedulerFaultTest, EinvalFallsBackToTheNearestAcceptedFrequency)
{
    FaultRule rule;
    rule.path_prefix = SetspeedPath();
    rule.fail_probability = 1.0;
    rule.errc = FaultErrc::kInval;
    rule.max_triggers = 1;  // only the preferred value is rejected
    Device device(FaultyDeviceConfig(rule));
    device.UseUserspaceGovernors();
    ConfigScheduler scheduler(&device);

    EXPECT_TRUE(scheduler.ApplyConfigNow(SystemConfig{5, kBwDefaultGovernor}));
    EXPECT_EQ(scheduler.stats().inval_fallbacks, 1u);
    // The accepted value is the nearest neighbour of the rejected target.
    const int level = device.cluster().level();
    EXPECT_NE(level, 5);
    EXPECT_EQ(std::abs(level - 5), 1);
}

TEST(ConfigSchedulerFaultTest, ConsecutiveFailedAppliesTrackTheChain)
{
    FaultRule rule;
    rule.path_prefix = SetspeedPath();
    rule.fail_probability = 1.0;
    rule.errc = FaultErrc::kIo;
    rule.duration = FaultDuration::kSticky;
    Device device(FaultyDeviceConfig(rule));
    device.UseUserspaceGovernors();
    ConfigScheduler scheduler(&device);
    const ProfileTable table = TwoConfigTable();
    ActuationPlan hold;
    hold.push_back(PlannedDwell{table.entries()[0].config, 2.0});

    EXPECT_EQ(scheduler.consecutive_failed_applies(), 0);
    scheduler.Apply(hold);
    EXPECT_EQ(scheduler.consecutive_failed_applies(), 1);
    scheduler.Apply(hold);
    EXPECT_EQ(scheduler.consecutive_failed_applies(), 2);

    // Repair the node: the chain resets once a clean cycle completes.
    device.fault_injector()->RepairAll();
    device.fault_injector()->Clear();
    scheduler.Apply(hold);
    scheduler.Apply(hold);
    EXPECT_EQ(scheduler.consecutive_failed_applies(), 0);
}

class HetConfigSchedulerTest : public ::testing::Test {
  protected:
    static DeviceConfig BigLittleDevice()
    {
        DeviceConfig config;
        config.topology = MakeExynos5433Topology();
        config.power_params = MakeExynos5433PowerParams();
        return config;
    }

    HetConfigSchedulerTest() : device_(BigLittleDevice()), scheduler_(&device_)
    {
        device_.UseUserspaceGovernors();
    }

    Device device_;
    ConfigScheduler scheduler_;
};

TEST_F(HetConfigSchedulerTest, ApplyConfigNowSetsBothClustersAndPlacement)
{
    SystemConfig config{3, 2};
    config.little_level = 4;
    config.placement = kPlacementBoth;
    EXPECT_TRUE(scheduler_.ApplyConfigNow(config));

    EXPECT_EQ(device_.cluster().level(), 3);
    EXPECT_EQ(device_.cluster(1).level(), 4);
    EXPECT_EQ(device_.bus().level(), 2);
    EXPECT_EQ(device_.thread_placement(), ThreadPlacement::kBoth);

    const platform::DwellDelivery& delivery =
        scheduler_.cycle_deliveries().back();
    EXPECT_TRUE(delivery.little.attempted);
    EXPECT_TRUE(delivery.little.write_ok);
    EXPECT_TRUE(delivery.little.verified);
    EXPECT_EQ(delivery.little.requested_level, 4);
    EXPECT_EQ(delivery.little.delivered_level, 4);
}

TEST_F(HetConfigSchedulerTest, BigOnlyConfigLeavesTheLittleClusterAlone)
{
    device_.cluster(1).SetLevel(2);
    scheduler_.ApplyConfigNow(SystemConfig{5, 1});

    EXPECT_EQ(device_.cluster().level(), 5);
    EXPECT_EQ(device_.cluster(1).level(), 2);
    EXPECT_FALSE(scheduler_.cycle_deliveries().back().little.attempted);
}

TEST_F(HetConfigSchedulerTest, DefaultPlacementCodeKeepsTheCurrentPlacement)
{
    device_.SetThreadPlacement(ThreadPlacement::kBigOnly);
    SystemConfig config{3, 2};
    config.little_level = 1;
    EXPECT_EQ(config.placement, kPlacementDefault);
    scheduler_.ApplyConfigNow(config);

    EXPECT_EQ(device_.cluster(1).level(), 1);
    EXPECT_EQ(device_.thread_placement(), ThreadPlacement::kBigOnly);
}

}  // namespace
}  // namespace aeo
