#include "core/profile_drift.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace aeo {
namespace {

DriftConfig
EnabledConfig()
{
    DriftConfig config;
    config.enabled = true;
    return config;
}

TEST(ProfileDriftTest, DisabledDetectorLearnsNothing)
{
    ProfileDriftDetector drift(4);  // default config: disabled
    for (int i = 0; i < 50; ++i) {
        drift.Observe(i, 0, 1.0, 1.5, 1.5);
    }
    EXPECT_EQ(drift.observation_count(), 0u);
    EXPECT_DOUBLE_EQ(drift.PowerCorrection(0), 1.0);
    EXPECT_DOUBLE_EQ(drift.SpeedupCorrection(0), 1.0);
    EXPECT_FALSE(drift.AnyCorrection());
}

TEST(ProfileDriftTest, ConvergesToAPersistentResidual)
{
    ProfileDriftDetector drift(4, EnabledConfig());
    for (int i = 0; i < 40; ++i) {
        drift.Observe(i, 2, 1.0, 1.3, 1.3);
    }
    EXPECT_NEAR(drift.PowerCorrection(2), 1.3, 0.01);
    EXPECT_NEAR(drift.SpeedupCorrection(2), 1.3, 0.01);
    EXPECT_TRUE(drift.AnyCorrection());
    // Unvisited rows inherit the global correction: the dominant drift
    // mechanism (leakage heating) shifts the whole table at once.
    EXPECT_NEAR(drift.GlobalPowerCorrection(), 1.3, 0.01);
    EXPECT_NEAR(drift.PowerCorrection(0), 1.3, 0.01);
    EXPECT_EQ(drift.corrected_entry_count(), 4u);
}

TEST(ProfileDriftTest, RowEvidenceOverridesTheGlobalFallback)
{
    // Row 0 drifts 50 % while row 1 measures spot-on. Row 1's own evidence
    // must win over the inflated global estimate, and a row with no
    // evidence at all (row 2) must follow the global.
    ProfileDriftDetector drift(3, EnabledConfig());
    for (int i = 0; i < 40; ++i) {
        drift.Observe(i, 0, 1.0, 1.5, 1.5);
        drift.Observe(i, 1, 1.0, 1.0, 1.0);
    }
    EXPECT_GT(drift.PowerCorrection(0), 1.3);
    EXPECT_DOUBLE_EQ(drift.PowerCorrection(1), 1.0);
    EXPECT_GT(drift.PowerCorrection(2), 1.1);
}

TEST(ProfileDriftTest, DeadZoneKeepsSmallResidualsUncorrected)
{
    // 5 % residual sits inside the 10 % threshold: measured and predicted
    // agree to within noise, so the table must not be rewritten.
    ProfileDriftDetector drift(2, EnabledConfig());
    for (int i = 0; i < 40; ++i) {
        drift.Observe(i, 0, 1.0, 1.05, 0.95);
    }
    EXPECT_DOUBLE_EQ(drift.PowerCorrection(0), 1.0);
    EXPECT_DOUBLE_EQ(drift.SpeedupCorrection(0), 1.0);
    EXPECT_FALSE(drift.AnyCorrection());
}

TEST(ProfileDriftTest, MinWeightGatesActivation)
{
    // kMinWeight = 3: two full-cycle observations are not yet evidence.
    ProfileDriftDetector drift(2, EnabledConfig());
    drift.Observe(0, 0, 1.0, 1.5, 1.5);
    drift.Observe(1, 0, 1.0, 1.5, 1.5);
    EXPECT_DOUBLE_EQ(drift.PowerCorrection(0), 1.0);
    drift.Observe(2, 0, 1.0, 1.5, 1.5);
    EXPECT_GT(drift.PowerCorrection(0), 1.1);
}

TEST(ProfileDriftTest, CorrectionsAreClampedIntoTheConfiguredRange)
{
    ProfileDriftDetector inflated(2, EnabledConfig());
    ProfileDriftDetector deflated(2, EnabledConfig());
    for (int i = 0; i < 60; ++i) {
        inflated.Observe(i, 0, 1.0, 6.0, 6.0);
        deflated.Observe(i, 0, 1.0, 0.05, 0.05);
    }
    EXPECT_DOUBLE_EQ(inflated.PowerCorrection(0), 2.0);
    EXPECT_DOUBLE_EQ(deflated.PowerCorrection(0), 0.5);
}

TEST(ProfileDriftTest, PartialDwellWeightBlendsProportionally)
{
    // alpha_eff = kEwmaAlpha · weight with the shipped alpha of 0.25: a
    // half-cycle visit moves the EWMA half as far as a full cycle would.
    ProfileDriftDetector drift(1, EnabledConfig());
    drift.Observe(0, 0, 0.5, 2.0, 1.0);
    const double alpha = 0.25 * 0.5;
    EXPECT_DOUBLE_EQ(drift.trace().back().power_ewma,
                     (1.0 - alpha) * 1.0 + alpha * 2.0);
}

TEST(ProfileDriftTest, GarbageObservationsAreIgnored)
{
    ProfileDriftDetector drift(2, EnabledConfig());
    drift.Observe(0, 0, 0.0, 1.5, 1.5);   // zero weight
    drift.Observe(1, 0, 1.0, -1.0, 1.5);  // negative residual
    drift.Observe(2, 0, 1.0, 1.5, 0.0);   // zero residual
    drift.Observe(3, 0, 1.0,
                  std::numeric_limits<double>::quiet_NaN(), 1.5);
    drift.Observe(4, 0, 1.0, 1.5,
                  std::numeric_limits<double>::infinity());
    EXPECT_EQ(drift.observation_count(), 0u);
    EXPECT_DOUBLE_EQ(drift.PowerCorrection(0), 1.0);
}

TEST(ProfileDriftTest, TraceRecordsEveryObservation)
{
    ProfileDriftDetector drift(3, EnabledConfig());
    drift.Observe(12.5, 1, 0.75, 1.2, 0.9);
    ASSERT_EQ(drift.trace().size(), 1u);
    const DriftRecord& record = drift.trace().front();
    EXPECT_DOUBLE_EQ(record.time_s, 12.5);
    EXPECT_EQ(record.entry_index, 1u);
    EXPECT_DOUBLE_EQ(record.weight, 0.75);
    EXPECT_DOUBLE_EQ(record.power_residual, 1.2);
    EXPECT_DOUBLE_EQ(record.speedup_residual, 0.9);
    EXPECT_GT(record.power_ewma, 1.0);
    EXPECT_LT(record.speedup_ewma, 1.0);
}

}  // namespace
}  // namespace aeo
