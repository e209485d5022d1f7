/**
 * @file
 * SimPlatform against a real simulated Device: the sysfs plumbing the
 * controller used to own — governor switches, thermal/cap read-back, perf
 * window drains — now verified at the platform seam.
 */
#include "platform/sim_platform.h"

#include <gtest/gtest.h>

#include "apps/workloads.h"
#include "soc/exynos5433.h"

namespace aeo {
namespace {

using platform::SimPlatform;

TEST(SimPlatformTest, PinForControlSwitchesTheRequestedGovernors)
{
    Device device;
    SimPlatform plat(&device);

    plat.governors().PinForControl(/*bandwidth=*/true, /*gpu=*/false);
    EXPECT_EQ(device.cpufreq().governor_name(), "userspace");
    EXPECT_EQ(device.devfreq().governor_name(), "userspace");
    EXPECT_EQ(device.gpufreq().governor_name(), "msm-adreno-tz");

    plat.governors().RestoreStock();
    EXPECT_EQ(device.cpufreq().governor_name(), "interactive");
    EXPECT_EQ(device.devfreq().governor_name(), "cpubw_hwmon");
}

TEST(SimPlatformTest, CpuOnlyPinLeavesTheBusWithHwmon)
{
    Device device;
    SimPlatform plat(&device);
    plat.governors().PinForControl(/*bandwidth=*/false, /*gpu=*/false);
    EXPECT_EQ(device.cpufreq().governor_name(), "userspace");
    EXPECT_EQ(device.devfreq().governor_name(), "cpubw_hwmon");
}

TEST(SimPlatformTest, ThermalsReadTheZoneAndTheAdvertisedCap)
{
    Device device;
    SimPlatform plat(&device);

    // No thermal model: the read falls back to the leakage reference.
    EXPECT_DOUBLE_EQ(plat.thermals().ReadZoneTempC(), kLeakageReferenceC);

    // Uncapped: scaling_max_freq advertises the top level.
    EXPECT_EQ(plat.thermals().ReadCpuCapLevel(), plat.max_cpu_level());
    EXPECT_EQ(plat.max_cpu_level(), device.cluster().table().max_level());

    // A kernel clamp shows up through the same read.
    device.cpufreq().SetThermalCapLevel(4);
    EXPECT_EQ(plat.thermals().ReadCpuCapLevel(), 4);
}

TEST(SimPlatformTest, PerfReaderDrainsTheDeviceWindows)
{
    Device device;
    SimPlatform plat(&device);
    device.UseUserspaceGovernors();
    device.LaunchApp(MakeSpotifySpec());

    plat.perf().StartSampling();
    EXPECT_TRUE(device.perf().running());
    device.RunFor(SimTime::FromSeconds(2));

    const platform::PerfWindow window = plat.perf().DrainWindow();
    EXPECT_GT(window.samples, 0u);
    EXPECT_GT(window.avg_gips, 0.0);
    EXPECT_GE(plat.perf().DrainAveragePowerMw(), 0.0);

    plat.perf().StopSampling();
    EXPECT_FALSE(device.perf().running());
}

TEST(SimPlatformTest, ActuatorIsTheConfigScheduler)
{
    Device device;
    SimPlatform plat(&device);
    device.UseUserspaceGovernors();

    platform::ActuationPlan plan;
    plan.push_back(platform::PlannedDwell{
        SystemConfig{9, kBwDefaultGovernor}, 2.0});
    plat.actuator().Apply(plan);
    EXPECT_EQ(device.cluster().level(), 9);
    EXPECT_EQ(plat.scheduler().write_count(), 1u);
    EXPECT_TRUE(plat.actuator().ProbeActuationPath());
}

TEST(SimPlatformTest, HomogeneousPlatformReportsOneCluster)
{
    Device device;
    SimPlatform plat(&device);
    EXPECT_EQ(plat.num_cpu_clusters(), 1);
    EXPECT_EQ(plat.max_little_level(), -1);
}

TEST(SimPlatformTest, BigLittlePlatformExposesBothDomains)
{
    DeviceConfig config;
    config.topology = MakeExynos5433Topology();
    config.power_params = MakeExynos5433PowerParams();
    Device device(config);
    SimPlatform plat(&device);

    EXPECT_EQ(plat.num_cpu_clusters(), 2);
    EXPECT_EQ(plat.max_cpu_level(), device.cluster().table().max_level());
    EXPECT_EQ(plat.max_little_level(),
              device.cluster(1).table().max_level());
}

TEST(SimPlatformTest, BigLittlePinTakesBothFrequencyDomains)
{
    DeviceConfig config;
    config.topology = MakeExynos5433Topology();
    config.power_params = MakeExynos5433PowerParams();
    Device device(config);
    SimPlatform plat(&device);

    plat.governors().PinForControl(/*bandwidth=*/true, /*gpu=*/false);
    EXPECT_EQ(device.cpufreq().governor_name(), "userspace");
    EXPECT_EQ(device.little_cpufreq()->governor_name(), "userspace");

    plat.governors().RestoreStock();
    EXPECT_EQ(device.cpufreq().governor_name(), "interactive");
    EXPECT_EQ(device.little_cpufreq()->governor_name(), "interactive");
}

}  // namespace
}  // namespace aeo
