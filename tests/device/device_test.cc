#include "device/device.h"

#include <gtest/gtest.h>

#include "apps/workloads.h"

namespace aeo {
namespace {

TEST(DeviceTest, BuildsWithStockGovernorsRegistered)
{
    Device device;
    const std::string cpu_governors = device.sysfs().Read(
        std::string(kCpufreqSysfsRoot) + "/scaling_available_governors");
    EXPECT_NE(cpu_governors.find("interactive"), std::string::npos);
    EXPECT_NE(cpu_governors.find("ondemand"), std::string::npos);
    EXPECT_NE(cpu_governors.find("userspace"), std::string::npos);
    const std::string bus_governors =
        device.sysfs().Read(std::string(kDevfreqSysfsRoot) + "/available_governors");
    EXPECT_NE(bus_governors.find("cpubw_hwmon"), std::string::npos);
}

TEST(DeviceTest, PinConfigurationSetsLevels)
{
    Device device;
    device.PinConfiguration(9, 4);
    EXPECT_EQ(device.cluster().level(), 9);
    EXPECT_EQ(device.bus().level(), 4);
}

TEST(DeviceTest, EnergyAccruesOverTime)
{
    Device device;
    device.PinConfiguration(0, 0);
    device.RunFor(SimTime::FromSeconds(5));
    EXPECT_NEAR(device.energy_meter().elapsed().seconds(), 5.0, 1e-6);
    EXPECT_GT(device.energy_meter().energy().value(), 0.0);
    // Idle phone at the lowest config: roughly base power.
    const double avg = device.energy_meter().AveragePower().value();
    EXPECT_GT(avg, 500.0);
    EXPECT_LT(avg, 1500.0);
}

TEST(DeviceTest, MonitorTracksExactEnergy)
{
    Device device;
    device.PinConfiguration(5, 3);
    device.LaunchApp(MakeSpotifySpec());
    device.RunFor(SimTime::FromSeconds(10));
    const RunResult result = device.CollectResult("test");
    EXPECT_NEAR(result.measured_energy_j, result.energy_j, result.energy_j * 0.02);
}

TEST(DeviceTest, AppMakesProgressAtPinnedConfig)
{
    Device device;
    device.PinConfiguration(17, 12);
    device.LaunchApp(MakeVidConSpec());
    device.RunFor(SimTime::FromSeconds(10));
    const RunResult result = device.CollectResult("test");
    EXPECT_GT(result.avg_gips, 1.0);
    EXPECT_GT(result.executed_gi, 10.0);
    EXPECT_FALSE(result.app_finished);
}

TEST(DeviceTest, BatchAppFinishesAndStopsTheRun)
{
    Device device;
    device.PinConfiguration(17, 12);
    AppSpec tiny;
    tiny.name = "tiny";
    AppPhase phase;
    phase.kind = PhaseKind::kWork;
    phase.work_gi = 1.0;
    phase.demand.ipc = 1.0;
    phase.demand.parallelism = 2.0;
    tiny.phases.push_back(phase);
    device.LaunchApp(tiny);
    device.RunUntilAppFinishes(SimTime::FromSeconds(100));
    const RunResult result = device.CollectResult("test");
    EXPECT_TRUE(result.app_finished);
    EXPECT_LT(result.duration_s, 5.0);
    EXPECT_NEAR(result.executed_gi, 1.0, 1e-4);
}

TEST(DeviceTest, HigherConfigDrawsMorePower)
{
    RunResult low;
    RunResult high;
    {
        Device device;
        device.PinConfiguration(0, 0);
        device.LaunchApp(MakeAngryBirdsSpec());
        device.RunFor(SimTime::FromSeconds(10));
        low = device.CollectResult("low");
    }
    {
        Device device;
        device.PinConfiguration(17, 12);
        device.LaunchApp(MakeAngryBirdsSpec());
        device.RunFor(SimTime::FromSeconds(10));
        high = device.CollectResult("high");
    }
    EXPECT_GT(high.avg_power_mw.value(), low.avg_power_mw.value() * 1.3);
    EXPECT_GT(high.avg_gips, low.avg_gips);
}

TEST(DeviceTest, ResidencyFractionsSumToOne)
{
    Device device;
    device.UseDefaultGovernors();
    device.LaunchApp(MakeAngryBirdsSpec());
    device.RunFor(SimTime::FromSeconds(20));
    const RunResult result = device.CollectResult("test");
    double cpu_sum = 0.0;
    for (const double f : result.cpu_residency) {
        cpu_sum += f;
    }
    double bw_sum = 0.0;
    for (const double f : result.bw_residency) {
        bw_sum += f;
    }
    EXPECT_NEAR(cpu_sum, 1.0, 1e-9);
    EXPECT_NEAR(bw_sum, 1.0, 1e-9);
    ASSERT_EQ(result.cpu_residency.size(), 18u);
    ASSERT_EQ(result.bw_residency.size(), 13u);
}

TEST(DeviceTest, GpuResidencySumsToOne)
{
    Device device;
    device.UseDefaultGovernors();
    device.LaunchApp(MakeSpotifySpec());
    device.RunFor(SimTime::FromSeconds(10));
    const RunResult result = device.CollectResult("test");
    ASSERT_EQ(result.gpu_residency.size(), 5u);
    double sum = 0.0;
    for (const double f : result.gpu_residency) {
        sum += f;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Spotify never touches the GPU model: the clock stays at the floor.
    EXPECT_NEAR(result.gpu_residency[0], 1.0, 1e-9);
}

TEST(DeviceTest, DefaultGovernorsReactToLoad)
{
    Device device;
    device.UseDefaultGovernors();
    device.LaunchApp(MakeVidConSpec());  // saturating load
    device.RunFor(SimTime::FromSeconds(5));
    // interactive must have ramped up under full load.
    EXPECT_GT(device.cluster().level(), 9);
    EXPECT_GT(device.cluster().transition_count(), 0u);
}

TEST(DeviceTest, DeterministicForSameSeed)
{
    const auto run = [](uint64_t seed) {
        DeviceConfig config;
        config.seed = seed;
        Device device(config);
        device.UseDefaultGovernors();
        device.LaunchApp(MakeAngryBirdsSpec());
        device.RunFor(SimTime::FromSeconds(15));
        return device.CollectResult("test");
    };
    const RunResult a = run(99);
    const RunResult b = run(99);
    const RunResult c = run(100);
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
    EXPECT_DOUBLE_EQ(a.avg_gips, b.avg_gips);
    EXPECT_EQ(a.cpu_transitions, b.cpu_transitions);
    EXPECT_NE(a.energy_j, c.energy_j);
}

TEST(DeviceTest, ControllerOverheadPowerIsCharged)
{
    RunResult without;
    RunResult with;
    {
        Device device;
        device.PinConfiguration(0, 0);
        device.RunFor(SimTime::FromSeconds(5));
        without = device.CollectResult("test");
    }
    {
        Device device;
        device.PinConfiguration(0, 0);
        device.SetControllerOverheadPower(100.0);
        device.RunFor(SimTime::FromSeconds(5));
        with = device.CollectResult("test");
    }
    EXPECT_NEAR(with.avg_power_mw.value() - without.avg_power_mw.value(), 100.0, 1.0);
}

TEST(DeviceTest, BackgroundLoadAffectsPowerAndLoadavg)
{
    RunResult nl;
    RunResult hl;
    {
        Device device;
        device.SetBackground(MakeBackgroundEnv(BackgroundKind::kNoLoad));
        device.PinConfiguration(0, 0);
        device.RunFor(SimTime::FromSeconds(30));
        nl = device.CollectResult("test");
    }
    {
        Device device;
        device.SetBackground(MakeBackgroundEnv(BackgroundKind::kHeavy));
        device.PinConfiguration(0, 0);
        device.RunFor(SimTime::FromSeconds(30));
        hl = device.CollectResult("test");
    }
    EXPECT_GT(hl.avg_power_mw.value(), nl.avg_power_mw.value());
    // §V-C reports loadavg 6.7 under NL and 6.6 under HL: nearly the same.
    // In the model the heavier load keeps more tasks runnable, but only
    // slightly.
    EXPECT_GT(hl.loadavg, nl.loadavg);
    for (const double loadavg : {nl.loadavg, hl.loadavg}) {
        EXPECT_GT(loadavg, 6.0);
        EXPECT_LT(loadavg, 7.0);
    }
    EXPECT_EQ(nl.load_name, "NL");
    EXPECT_EQ(hl.load_name, "HL");
}

TEST(DeviceTest, PerfToolOverheadSlowsForeground)
{
    const auto measure = [](bool perf_on) {
        Device device;
        device.PinConfiguration(4, 4);
        device.LaunchApp(MakeVidConSpec());
        if (perf_on) {
            PerfToolConfig config;  // 1 s period → 4 % overhead
            device.perf().Start();
            device.Sync();
        }
        device.RunFor(SimTime::FromSeconds(10));
        return device.CollectResult("test").avg_gips;
    };
    const double without = measure(false);
    const double with = measure(true);
    EXPECT_NEAR(with / without, 0.96, 0.005);
}

}  // namespace
}  // namespace aeo
