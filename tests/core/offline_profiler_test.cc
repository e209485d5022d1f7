/**
 * @file
 * The offline profiler's pin path on a big.LITTLE device. A CPU-only
 * configuration (§V-D) must pin the primary cluster's cpufreq policy under
 * userspace and leave the bus to cpubw_hwmon, whatever the directory the
 * policy lives in: the Exynos 5433 has cpufreq/policy0 (the LITTLE A53s)
 * and policy4 (the big A57s, its primary cluster), not the single-cluster
 * cpu0/cpufreq.
 */
#include "core/offline_profiler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/app_registry.h"
#include "common/strings.h"
#include "power/power_model.h"
#include "soc/exynos5433.h"

namespace aeo {
namespace {

/** The governors and levels a profiling run's device ran under. */
struct PinnedState {
    bool sampled = false;
    std::string primary_root;
    std::string primary_governor;
    int primary_level = -1;
    std::string bus_governor;
};

TEST(OfflineProfilerTest, CpuOnlyConfigPinsThePrimaryPolicyOnBigLittle)
{
    PinnedState state;
    const OfflineProfiler profiler([&state](uint64_t seed) {
        DeviceConfig config;
        config.seed = seed;
        config.topology = MakeExynos5433Topology();
        config.power_params = MakeExynos5433PowerParams();
        auto device = std::make_unique<Device>(config);
        Device* raw = device.get();
        // One second into the measurement run, long after the pinning.
        raw->sim().ScheduleAfter(SimTime::FromSeconds(1), [raw, &state] {
            state.sampled = true;
            state.primary_root = raw->cpufreq(0).sysfs_root();
            state.primary_governor = raw->cpufreq(0).governor_name();
            state.primary_level = raw->cluster(0).level();
            state.bus_governor = raw->devfreq().governor_name();
        });
        return device;
    });
    ProfilerOptions options;
    options.runs = 1;
    options.measure_duration = SimTime::FromSeconds(2);
    const ProfileMeasurement measurement =
        profiler.MeasureConfig(MakeAppSpecByName("AngryBirds"),
                               SystemConfig{3, kBwDefaultGovernor}, options);

    EXPECT_GT(measurement.gips, 0.0);
    ASSERT_TRUE(state.sampled);
    EXPECT_TRUE(EndsWith(state.primary_root, "/cpufreq/policy4"))
        << state.primary_root;
    EXPECT_EQ(state.primary_governor, "userspace");
    EXPECT_EQ(state.primary_level, 3);
    EXPECT_EQ(state.bus_governor, "cpubw_hwmon");
}

}  // namespace
}  // namespace aeo
