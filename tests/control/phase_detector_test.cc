#include "control/phase_detector.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace aeo {
namespace {

TEST(PhaseDetectorTest, SinglePhaseStaysSingle)
{
    PhaseDetector detector;
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        detector.Classify(0.30 * (1.0 + rng.Gaussian(0.0, 0.03)));
    }
    EXPECT_EQ(detector.phases().size(), 1u);
    EXPECT_NEAR(detector.phases()[0].centroid, 0.30, 0.02);
    EXPECT_EQ(detector.switch_count(), 0u);
}

TEST(PhaseDetectorTest, SeparatesTwoDistinctPhases)
{
    // MobileBench-like: page loads (~2.5 GIPS) vs viewing (~0.5 GIPS).
    PhaseDetector detector;
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        detector.Classify(2.5 * (1.0 + rng.Gaussian(0.0, 0.05)));
        detector.Classify(0.5 * (1.0 + rng.Gaussian(0.0, 0.05)));
    }
    ASSERT_EQ(detector.phases().size(), 2u);
    const double lo = std::min(detector.phases()[0].centroid,
                               detector.phases()[1].centroid);
    const double hi = std::max(detector.phases()[0].centroid,
                               detector.phases()[1].centroid);
    EXPECT_NEAR(lo, 0.5, 0.1);
    EXPECT_NEAR(hi, 2.5, 0.3);
    // Alternating stream: a switch on nearly every sample.
    EXPECT_GE(detector.switch_count(), 95u);
}

TEST(PhaseDetectorTest, CentroidTracksDrift)
{
    PhaseDetector detector;
    double level = 1.0;
    for (int i = 0; i < 200; ++i) {
        level *= 1.002;  // slow drift stays within tolerance
        detector.Classify(level);
    }
    EXPECT_EQ(detector.phases().size(), 1u);
    EXPECT_GT(detector.phases()[0].centroid, 1.2);
}

TEST(PhaseDetectorTest, EvictsStalePhaseWhenFull)
{
    // Four distinct levels fill the detector's 4 slots...
    PhaseDetector detector;
    for (const double level : {1.0, 2.0, 4.0, 8.0}) {
        detector.Classify(level);
    }
    ASSERT_EQ(detector.phases().size(), 4u);
    EXPECT_EQ(detector.phases()[0].centroid, 1.0);
    // ...and a fifth evicts the least-recently-seen (1.0) from its slot.
    EXPECT_EQ(detector.Classify(16.0), 0);
    ASSERT_EQ(detector.phases().size(), 4u);
    for (const PhaseInfo& phase : detector.phases()) {
        EXPECT_NE(phase.centroid, 1.0);
    }
}

TEST(PhaseDetectorTest, StablePhaseIdsAcrossRevisits)
{
    PhaseDetector detector;
    const int a1 = detector.Classify(1.0);
    const int b1 = detector.Classify(3.0);
    const int a2 = detector.Classify(1.02);
    const int b2 = detector.Classify(2.95);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(b1, b2);
    EXPECT_NE(a1, b1);
    EXPECT_EQ(detector.switch_count(), 3u);
}

}  // namespace
}  // namespace aeo
