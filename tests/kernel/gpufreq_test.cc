#include <gtest/gtest.h>

#include "kernel/devfreq.h"

namespace aeo {
namespace {

class GpuFreqTest : public ::testing::Test {
  protected:
    GpuFreqTest()
        : gpu_(MakeAdreno420()),
          policy_(&sim_, &gpu_, &meter_, &sysfs_, "/sys/kgsl")
    {
    }

    /** Feeds a constant busy fraction and runs the clock. */
    void
    Drive(SimTime duration, double busy)
    {
        const SimTime slice = SimTime::Millis(5);
        SimTime done;
        while (done < duration) {
            meter_.Advance(busy, slice);
            sim_.RunFor(slice);
            done += slice;
        }
    }

    Simulator sim_;
    GpuDomain gpu_;
    GpuBusyMeter meter_;
    Sysfs sysfs_;
    GpuFreqPolicy policy_;
};

TEST_F(GpuFreqTest, GovernorSwitchThroughSysfs)
{
    EXPECT_TRUE(sysfs_.Write("/sys/kgsl/governor", "performance"));
    EXPECT_EQ(gpu_.level(), 4);
    EXPECT_EQ(sysfs_.Read("/sys/kgsl/governor"), "performance");
    EXPECT_FALSE(sysfs_.Write("/sys/kgsl/governor", "bogus"));
}

TEST_F(GpuFreqTest, UserspaceSetFreq)
{
    sysfs_.Write("/sys/kgsl/governor", "userspace");
    EXPECT_TRUE(sysfs_.Write("/sys/kgsl/userspace/set_freq", "500"));
    EXPECT_EQ(gpu_.level(), 3);
    EXPECT_EQ(sysfs_.Read("/sys/kgsl/cur_freq"), "500");
}

TEST_F(GpuFreqTest, AdrenoTzStepsUpUnderLoad)
{
    sysfs_.Write("/sys/kgsl/governor", "msm-adreno-tz");
    Drive(SimTime::Millis(300), 1.0);
    EXPECT_EQ(gpu_.level(), 4);  // one step per 50 ms sample → max in 200 ms
}

TEST_F(GpuFreqTest, AdrenoTzStepsDownWhenIdle)
{
    sysfs_.Write("/sys/kgsl/governor", "msm-adreno-tz");
    Drive(SimTime::Millis(300), 1.0);
    ASSERT_EQ(gpu_.level(), 4);
    Drive(SimTime::Millis(400), 0.05);
    EXPECT_EQ(gpu_.level(), 0);
}

TEST_F(GpuFreqTest, AdrenoTzHoldsInTheDeadBand)
{
    sysfs_.Write("/sys/kgsl/governor", "msm-adreno-tz");
    Drive(SimTime::Millis(100), 1.0);
    const int level = gpu_.level();
    ASSERT_GT(level, 0);
    Drive(SimTime::Millis(400), 0.5);  // between the thresholds
    EXPECT_EQ(gpu_.level(), level);
}

TEST_F(GpuFreqTest, BusyMeterIntegrates)
{
    meter_.Advance(0.5, SimTime::FromSeconds(2));
    meter_.Advance(1.0, SimTime::FromSeconds(1));
    EXPECT_DOUBLE_EQ(meter_.busy_seconds(), 2.0);
    EXPECT_EQ(meter_.elapsed(), SimTime::FromSeconds(3));
}

}  // namespace
}  // namespace aeo
