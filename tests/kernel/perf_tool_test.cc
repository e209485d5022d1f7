#include "kernel/perf_tool.h"

#include <gtest/gtest.h>

namespace aeo {
namespace {

class PerfToolTest : public ::testing::Test {
  protected:
    /** Feeds the PMU at a constant rate while the simulator runs. */
    void
    Drive(SimTime duration, double gips)
    {
        const SimTime slice = SimTime::Millis(10);
        SimTime done;
        while (done < duration) {
            pmu_.Advance(gips, 1.0, 1.0, 0.0, slice);
            sim_.RunFor(slice);
            done += slice;
        }
    }

    Simulator sim_;
    Pmu pmu_;
};

TEST_F(PerfToolTest, MeasuresSteadyRate)
{
    PerfToolConfig config;
    config.noise_rel_stddev = 0.0;
    PerfTool perf(&sim_, &pmu_, 1, config);
    perf.Start();
    Drive(SimTime::FromSeconds(3), 0.5);
    const PerfWindow window = perf.DrainWindow();
    EXPECT_NEAR(window.avg_gips, 0.5, 1e-9);
    EXPECT_EQ(window.samples, 3u);
    EXPECT_EQ(perf.sample_count(), 3u);
}

TEST_F(PerfToolTest, PeriodClampedToFloor)
{
    PerfToolConfig config;
    config.sampling_period = SimTime::Millis(10);  // below the 100 ms floor
    PerfTool perf(&sim_, &pmu_, 1, config);
    EXPECT_EQ(perf.effective_period(), PerfTool::kMinSamplingPeriod);
}

TEST_F(PerfToolTest, OverheadScalesInverselyWithPeriod)
{
    PerfToolConfig at_1s;
    at_1s.sampling_period = SimTime::FromSeconds(1);
    PerfTool slow(&sim_, &pmu_, 1, at_1s);
    slow.Start();
    // §V-A1: 4 % at 1 s, 40 % at 100 ms, 15 mW at 1 s.
    EXPECT_NEAR(slow.cpu_overhead_fraction(), 0.04, 1e-12);
    EXPECT_NEAR(slow.power_overhead_mw(), 15.0, 1e-12);
    slow.Stop();

    PerfToolConfig at_100ms;
    at_100ms.sampling_period = SimTime::Millis(100);
    PerfTool fast(&sim_, &pmu_, 1, at_100ms);
    fast.Start();
    EXPECT_NEAR(fast.cpu_overhead_fraction(), 0.40, 1e-12);
    fast.Stop();
}

TEST_F(PerfToolTest, NoOverheadWhenStopped)
{
    PerfTool perf(&sim_, &pmu_, 1);
    EXPECT_DOUBLE_EQ(perf.cpu_overhead_fraction(), 0.0);
    EXPECT_DOUBLE_EQ(perf.power_overhead_mw(), 0.0);
}

TEST_F(PerfToolTest, WindowAverageDrains)
{
    PerfToolConfig config;
    config.noise_rel_stddev = 0.0;
    PerfTool perf(&sim_, &pmu_, 1, config);
    perf.Start();
    Drive(SimTime::FromSeconds(2), 1.0);
    EXPECT_NEAR(perf.DrainWindow().avg_gips, 1.0, 1e-9);
    // Window drained: with no new samples the next window is empty.
    const PerfWindow empty = perf.DrainWindow();
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_DOUBLE_EQ(empty.avg_gips, 0.0);
    Drive(SimTime::FromSeconds(2), 0.2);
    EXPECT_NEAR(perf.DrainWindow().avg_gips, 0.2, 1e-9);
}

TEST_F(PerfToolTest, NoisyMeasurementsVaryButAverageOut)
{
    PerfToolConfig config;
    config.noise_rel_stddev = 0.05;
    config.sampling_period = SimTime::Millis(100);
    PerfTool perf(&sim_, &pmu_, 99, config);
    perf.Start();
    Drive(SimTime::FromSeconds(20), 0.5);  // 200 samples
    const PerfWindow window = perf.DrainWindow();
    EXPECT_EQ(window.samples, 200u);
    EXPECT_NEAR(window.avg_gips, 0.5, 0.01);
}

TEST_F(PerfToolTest, ZeroBeforeFirstSample)
{
    PerfTool perf(&sim_, &pmu_, 1);
    perf.Start();
    const PerfWindow window = perf.DrainWindow();
    EXPECT_EQ(window.samples, 0u);
    EXPECT_DOUBLE_EQ(window.avg_gips, 0.0);
}

}  // namespace
}  // namespace aeo
