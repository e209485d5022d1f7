#include "power/monsoon.h"

#include <gtest/gtest.h>

namespace aeo {
namespace {

TEST(MonsoonTest, SamplesAtConfiguredRate)
{
    Simulator sim;
    MonsoonConfig config;
    config.sample_hz = 5000.0;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1000.0); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(1));
    EXPECT_EQ(monitor.sample_count(), 5000u);
}

TEST(MonsoonTest, NoiselessAverageIsExact)
{
    Simulator sim;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1623.57); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(2));
    EXPECT_NEAR(monitor.MeasuredAveragePower().value(), 1623.57, 1e-9);
}

TEST(MonsoonTest, NoisyAverageConvergesToTruth)
{
    Simulator sim;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.02;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(2000.0); }, 7, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(5));
    // 25000 samples at 2 % relative noise: mean within ~0.1 %.
    EXPECT_NEAR(monitor.MeasuredAveragePower().value(), 2000.0, 4.0);
}

TEST(MonsoonTest, TracksTimeVaryingPower)
{
    Simulator sim;
    double current = 1000.0;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [&] { return Milliwatts(current); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(1));
    current = 3000.0;
    sim.RunUntil(SimTime::FromSeconds(2));
    // Half the samples at 1 W, half at 3 W.
    EXPECT_NEAR(monitor.MeasuredAveragePower().value(), 2000.0, 2.0);
}

TEST(MonsoonTest, MeasuredEnergyMatchesAverageTimesDuration)
{
    Simulator sim;
    MonsoonConfig config;
    config.noise_rel_stddev = 0.0;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1500.0); }, 1, config);
    monitor.Start();
    sim.RunUntil(SimTime::FromSeconds(10));
    EXPECT_NEAR(monitor.MeasuredEnergy().value(), 15.0, 0.01);
}

TEST(MonsoonTest, StopAndResetWork)
{
    Simulator sim;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1.0); }, 1);
    monitor.Start();
    sim.RunUntil(SimTime::Millis(10));
    monitor.Stop();
    const uint64_t count = monitor.sample_count();
    sim.RunUntil(SimTime::FromSeconds(1));
    EXPECT_EQ(monitor.sample_count(), count);
    monitor.Reset();
    EXPECT_EQ(monitor.sample_count(), 0u);
}

}  // namespace
}  // namespace aeo
