#include "kernel/devfreq.h"

#include <gtest/gtest.h>

#include "soc/nexus6.h"

namespace aeo {
namespace {

class DevfreqTest : public ::testing::Test {
  protected:
    DevfreqTest()
        : bus_(MakeNexus6BandwidthTable()),
          policy_(&sim_, &bus_, &meter_, &sysfs_, "/sys/devfreq")
    {
    }

    Simulator sim_;
    MemoryBus bus_;
    BusTrafficMeter meter_;
    Sysfs sysfs_;
    DevfreqPolicy policy_;
};

TEST_F(DevfreqTest, GovernorSwitchingThroughSysfs)
{
    EXPECT_TRUE(sysfs_.Write("/sys/devfreq/governor", "performance"));
    EXPECT_EQ(bus_.level(), 12);
    EXPECT_TRUE(sysfs_.Write("/sys/devfreq/governor", "powersave"));
    EXPECT_EQ(bus_.level(), 0);
}

TEST_F(DevfreqTest, UserspaceSetFreq)
{
    sysfs_.Write("/sys/devfreq/governor", "userspace");
    EXPECT_TRUE(sysfs_.Write("/sys/devfreq/userspace/set_freq", "3051"));
    EXPECT_EQ(bus_.level(), 4);
    EXPECT_EQ(sysfs_.Read("/sys/devfreq/cur_freq"), "3051");
}

TEST_F(DevfreqTest, SetFreqRejectedUnderOtherGovernors)
{
    sysfs_.Write("/sys/devfreq/governor", "performance");
    EXPECT_FALSE(sysfs_.Write("/sys/devfreq/userspace/set_freq", "762"));
    EXPECT_EQ(bus_.level(), 12);
}

TEST_F(DevfreqTest, LimitsClampRequests)
{
    policy_.SetLevelLimits(2, 8);
    policy_.RequestLevel(0);
    EXPECT_EQ(bus_.level(), 2);
    policy_.RequestLevel(12);
    EXPECT_EQ(bus_.level(), 8);
}

TEST_F(DevfreqTest, MinMaxFreqFiles)
{
    EXPECT_TRUE(sysfs_.Write("/sys/devfreq/min_freq", "1525"));
    EXPECT_EQ(policy_.min_level_limit(), 2);
    EXPECT_EQ(bus_.level(), 2);
    EXPECT_TRUE(sysfs_.Write("/sys/devfreq/max_freq", "8056"));
    EXPECT_EQ(policy_.max_level_limit(), 9);
}

TEST_F(DevfreqTest, AvailableFrequenciesListsTable)
{
    const std::string freqs = sysfs_.Read("/sys/devfreq/available_frequencies");
    EXPECT_NE(freqs.find("762"), std::string::npos);
    EXPECT_NE(freqs.find("16250"), std::string::npos);
}

}  // namespace
}  // namespace aeo
