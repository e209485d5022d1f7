#include "kernel/loadavg.h"

#include <gtest/gtest.h>

namespace aeo {
namespace {

TEST(LoadAvgTest, StartsAtResidentPressure)
{
    const LoadAvg load(6.3);
    EXPECT_DOUBLE_EQ(load.value(), 6.3);
}

TEST(LoadAvgTest, ConvergesTowardRunnableCount)
{
    LoadAvg load(6.0);
    for (int i = 0; i < 600; ++i) {
        load.Advance(2.0, SimTime::FromSeconds(1));  // target 8.0
    }
    EXPECT_NEAR(load.value(), 8.0, 0.01);
}

TEST(LoadAvgTest, OneMinuteTimeConstant)
{
    LoadAvg load(0.0);
    load.Advance(1.0, SimTime::FromSeconds(60));
    // After one time constant: 1 − e⁻¹ ≈ 0.632.
    EXPECT_NEAR(load.value(), 0.632, 0.001);
}

TEST(LoadAvgTest, ResidentChangeShiftsTarget)
{
    LoadAvg load(6.0);
    load.set_resident_tasks(7.0);
    for (int i = 0; i < 600; ++i) {
        load.Advance(0.0, SimTime::FromSeconds(1));
    }
    EXPECT_NEAR(load.value(), 7.0, 0.01);
}

TEST(LoadAvgTest, MovesOnlyAtLoadFreqInstants)
{
    // Irregular steps that straddle the 5 s instants: the value holds
    // between instants and folds once per instant passed, with the count in
    // force then — the count of the step that reaches the instant.
    LoadAvg load(6.0);
    SimTime now = SimTime::Zero();
    int folds = 0;
    double runnable = 0.0;
    while (now < SimTime::FromSeconds(60)) {
        const SimTime step = SimTime::Millis(700 + 300 * (folds % 3));
        const double before = load.value();
        runnable = runnable == 1.0 ? 3.0 : 1.0;
        const int64_t instants_before = now.micros() / LoadAvg::kLoadFreq.micros();
        now += step;
        const int64_t instants_after = now.micros() / LoadAvg::kLoadFreq.micros();
        load.Advance(runnable, step);
        if (instants_after == instants_before) {
            EXPECT_EQ(load.value(), before) << "at " << now.seconds() << " s";
        } else {
            ASSERT_EQ(instants_after, instants_before + 1);
            const double active = 6.0 + runnable;
            EXPECT_EQ(load.value(),
                      before * LoadAvg::kDecay + active * (1.0 - LoadAvg::kDecay))
                << "at " << now.seconds() << " s";
            ++folds;
        }
    }
    EXPECT_EQ(folds, 12);
}

}  // namespace
}  // namespace aeo
