/**
 * @file
 * Integration tests of the offline profiling stage against the live device
 * simulator (§III-A).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "common/strings.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"

namespace aeo {
namespace {

ProfilerOptions
FastOptions()
{
    ProfilerOptions options;
    options.runs = 1;
    options.measure_duration = SimTime::FromSeconds(10);
    return options;
}

TEST(ProfilerIntegrationTest, SparseProfileCoversAllBandwidthLevels)
{
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.cpu_levels = {0, 2, 4};  // AngryBirds restriction (levels 1,3,5)
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("AngryBirds"), options);
    // Sparse: 3 levels × 13 interpolated bandwidths.
    EXPECT_EQ(table.size(), 3u * 13u);
    EXPECT_GT(table.base_speed_gips(), 0.0);
    EXPECT_GE(table.max_speedup(), table.min_speedup());
}

TEST(ProfilerIntegrationTest, SpeedupIncreasesWithCpuLevelForComputeBoundApp)
{
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.cpu_levels = {6, 7, 8, 9, 10, 11};
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("VidCon"), options);
    // At the lowest bandwidth, speedup must rise with the CPU level.
    double prev = 0.0;
    for (const ProfileEntry& entry : table.entries()) {
        if (entry.config.bw_level == 0) {
            EXPECT_GT(entry.speedup, prev);
            prev = entry.speedup;
        }
    }
    EXPECT_GT(prev, 1.2);
}

TEST(ProfilerIntegrationTest, PowerIncreasesWithCpuLevel)
{
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.cpu_levels = {0, 4, 8, 12, 16};
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("VidCon"), options);
    double prev = 0.0;
    for (const ProfileEntry& entry : table.entries()) {
        if (entry.config.bw_level == 0) {
            EXPECT_GT(entry.power_mw.value(), prev);
            prev = entry.power_mw.value();
        }
    }
}

TEST(ProfilerIntegrationTest, PacedAppSpeedupSaturates)
{
    // AngryBirds: speedup at the highest profiled level stays near the
    // demand cap (≈1.84), far below the frequency ratio (2.94×).
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.cpu_levels = GetAppScenario("AngryBirds").profile_cpu_levels;
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("AngryBirds"), options);
    EXPECT_LT(table.max_speedup(), 2.2);
    EXPECT_GT(table.max_speedup(), 1.5);
}

TEST(ProfilerIntegrationTest, CpuOnlyProfileUsesSentinel)
{
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.cpu_only = true;
    options.cpu_levels = {0, 2, 4};
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("Spotify"), options);
    EXPECT_EQ(table.size(), 3u);
    for (const ProfileEntry& entry : table.entries()) {
        EXPECT_FALSE(entry.config.controls_bandwidth());
    }
}

TEST(ProfilerIntegrationTest, DenseProfileHasFullGrid)
{
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.sparse = false;
    options.cpu_levels = {0, 4};
    options.measure_duration = SimTime::FromSeconds(5);
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("Spotify"), options);
    EXPECT_EQ(table.size(), 2u * 13u);
}

TEST(ProfilerIntegrationTest, GpuGridExtendsTheTable)
{
    // §VII extension: adding GPU levels multiplies the grid; the table rows
    // carry the GPU level, and so does its CSV.
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.cpu_levels = {0, 4};
    options.gpu_levels = {1, 3};
    options.measure_duration = SimTime::FromSeconds(5);
    const ProfileTable table =
        profiler.Profile(MakeAppSpecByName("Spotify"), options);
    EXPECT_EQ(table.size(), 2u * 13u * 2u);
    for (const ProfileEntry& entry : table.entries()) {
        EXPECT_TRUE(entry.config.controls_gpu());
    }
    const std::vector<std::string> rows = Split(table.ToCsv(), '\n');
    ASSERT_GE(rows.size(), table.size() + 1);
    EXPECT_EQ(rows[0], "cpu_level,bw_level,gpu_level,speedup,power_mw");
    const SystemConfig& config = table.entries()[5].config;
    EXPECT_TRUE(StartsWith(rows[6], StrFormat("%d,%d,%d,", config.cpu_level,
                                              config.bw_level, config.gpu_level)))
        << rows[6];
}

TEST(ProfilerIntegrationTest, MeasurementAveragesRuns)
{
    const OfflineProfiler profiler;
    ProfilerOptions options = FastOptions();
    options.runs = 3;
    options.measure_duration = SimTime::FromSeconds(5);
    const ProfileMeasurement m = profiler.MeasureConfig(
        MakeAppSpecByName("AngryBirds"), SystemConfig{0, 0}, options);
    EXPECT_NEAR(m.gips, 0.129, 0.012);
    EXPECT_GT(m.power_mw.value(), 1000.0);
}

}  // namespace
}  // namespace aeo
