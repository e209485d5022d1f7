#include "kernel/input_boost.h"

#include <gtest/gtest.h>

#include "soc/nexus6.h"

namespace aeo {
namespace {

class InputBoostTest : public ::testing::Test {
  protected:
    InputBoostTest()
        : cluster_(MakeNexus6FrequencyTable(), 4),
          policy_(&sim_, &cluster_, &meter_, &sysfs_, "/sys/cpufreq"),
          boost_(&sim_, &policy_)
    {
        policy_.SetGovernor("userspace");
    }

    Simulator sim_;
    CpuCluster cluster_;
    CpuLoadMeter meter_;
    Sysfs sysfs_;
    CpufreqPolicy policy_;
    InputBoost boost_;
};

TEST_F(InputBoostTest, TouchRaisesTheFrequencyFloor)
{
    ASSERT_EQ(cluster_.level(), 0);
    boost_.OnTouch();
    EXPECT_TRUE(boost_.boosted());
    // The floor jumps to the boost frequency (1.4976 GHz = level 10).
    EXPECT_EQ(policy_.min_level_limit(), 9);
    EXPECT_EQ(cluster_.level(), 9);  // current level re-clamped upward
}

TEST_F(InputBoostTest, BoostExpiresAfterTheWindow)
{
    boost_.OnTouch();
    sim_.RunUntil(SimTime::Millis(1400));
    EXPECT_TRUE(boost_.boosted());
    sim_.RunUntil(SimTime::Millis(1600));
    EXPECT_FALSE(boost_.boosted());
    EXPECT_EQ(policy_.min_level_limit(), 0);
}

TEST_F(InputBoostTest, RepeatedTouchesExtendTheWindow)
{
    boost_.OnTouch();
    sim_.RunUntil(SimTime::Millis(1000));
    boost_.OnTouch();  // extends to t = 2.5 s
    sim_.RunUntil(SimTime::Millis(2400));
    EXPECT_TRUE(boost_.boosted());
    sim_.RunUntil(SimTime::Millis(2600));
    EXPECT_FALSE(boost_.boosted());
    EXPECT_EQ(boost_.touch_count(), 2u);
}

TEST_F(InputBoostTest, GovernorMinLimitRestoredExactly)
{
    policy_.SetLevelLimits(2, 17);
    boost_.OnTouch();
    sim_.RunUntil(SimTime::FromSeconds(2));
    EXPECT_EQ(policy_.min_level_limit(), 2);
}

}  // namespace
}  // namespace aeo
