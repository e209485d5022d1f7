#include "core/profile_table.h"

#include <gtest/gtest.h>

#include "soc/nexus6.h"

namespace aeo {
namespace {

std::vector<ProfileMeasurement>
SampleMeasurements()
{
    return {
        {SystemConfig{0, 0}, 0.129, Milliwatts(1623.57)},
        {SystemConfig{0, 12}, 0.131, Milliwatts(1980.0)},
        {SystemConfig{4, 0}, 0.237, Milliwatts(2219.22)},
        {SystemConfig{4, 12}, 0.240, Milliwatts(2590.0)},
    };
}

TEST(ProfileTableTest, NormalizesToSlowestMeasurement)
{
    const ProfileTable table =
        ProfileTable::FromMeasurements("AngryBirds", SampleMeasurements());
    EXPECT_DOUBLE_EQ(table.base_speed_gips(), 0.129);
    EXPECT_DOUBLE_EQ(table.min_speedup(), 1.0);
    EXPECT_NEAR(table.max_speedup(), 0.240 / 0.129, 1e-12);
}

TEST(ProfileTableTest, EntriesSortedBySpeedup)
{
    const ProfileTable table =
        ProfileTable::FromMeasurements("app", SampleMeasurements());
    for (size_t i = 1; i < table.size(); ++i) {
        EXPECT_LE(table.entries()[i - 1].speedup, table.entries()[i].speedup);
    }
}

TEST(ProfileTableTest, SpeedupGipsConversions)
{
    const ProfileTable table =
        ProfileTable::FromMeasurements("app", SampleMeasurements());
    EXPECT_NEAR(table.SpeedupForGips(0.258), 2.0, 1e-12);
    EXPECT_NEAR(table.GipsForSpeedup(2.0), 0.258, 1e-12);
}

TEST(ProfileTableTest, InterpolationFillsBandwidthColumns)
{
    const BandwidthTable bw = MakeNexus6BandwidthTable();
    const ProfileTable sparse =
        ProfileTable::FromMeasurements("app", SampleMeasurements());
    const ProfileTable dense = sparse.InterpolateBandwidths(bw);
    // Two CPU levels × 13 bandwidth levels.
    EXPECT_EQ(dense.size(), 26u);
    // Interpolated values are between the endpoints and monotone in bw.
    double prev_power = 0.0;
    for (const ProfileEntry& entry : dense.entries()) {
        if (entry.config.cpu_level == 0) {
            EXPECT_GE(entry.power_mw.value(), 1623.57 - 1e-9);
            EXPECT_LE(entry.power_mw.value(), 1980.0 + 1e-9);
        }
    }
    for (int level = 0; level < 13; ++level) {
        for (const ProfileEntry& entry : dense.entries()) {
            if (entry.config.cpu_level == 0 && entry.config.bw_level == level) {
                EXPECT_GE(entry.power_mw.value(), prev_power);
                prev_power = entry.power_mw.value();
            }
        }
    }
}

TEST(ProfileTableTest, InterpolationIsExactAtMeasuredPoints)
{
    const BandwidthTable bw = MakeNexus6BandwidthTable();
    const ProfileTable dense =
        ProfileTable::FromMeasurements("app", SampleMeasurements())
            .InterpolateBandwidths(bw);
    for (const ProfileEntry& entry : dense.entries()) {
        if (entry.config == SystemConfig{0, 0}) {
            EXPECT_NEAR(entry.power_mw.value(), 1623.57, 1e-9);
            EXPECT_NEAR(entry.speedup, 1.0, 1e-12);
        }
        if (entry.config == SystemConfig{4, 12}) {
            EXPECT_NEAR(entry.power_mw.value(), 2590.0, 1e-9);
        }
    }
}

TEST(ProfileTableTest, ToStringRendersRows)
{
    const ProfileTable table =
        ProfileTable::FromMeasurements("AngryBirds", SampleMeasurements());
    const std::string out = table.ToString();
    EXPECT_NE(out.find("AngryBirds"), std::string::npos);
    EXPECT_NE(out.find("(1, 1)"), std::string::npos);
    EXPECT_NE(out.find("1623.57"), std::string::npos);
}

TEST(ProfileTableDeathTest, CpuOnlyTableCannotInterpolate)
{
    const std::vector<ProfileMeasurement> measurements = {
        {SystemConfig{0, kBwDefaultGovernor}, 0.1, Milliwatts(1500.0)},
        {SystemConfig{2, kBwDefaultGovernor}, 0.2, Milliwatts(1800.0)},
    };
    const ProfileTable table = ProfileTable::FromMeasurements("app", measurements);
    EXPECT_DEATH(table.InterpolateBandwidths(MakeNexus6BandwidthTable()),
                 "CPU-only");
}

}  // namespace
}  // namespace aeo
