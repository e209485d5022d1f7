#include "kernel/cpufreq.h"

#include <gtest/gtest.h>

#include "soc/nexus6.h"

namespace aeo {
namespace {

class CpufreqTest : public ::testing::Test {
  protected:
    CpufreqTest()
        : cluster_(MakeNexus6FrequencyTable(), 4),
          policy_(&sim_, &cluster_, &meter_, &sysfs_, "/sys/cpufreq")
    {
    }

    Simulator sim_;
    CpuCluster cluster_;
    CpuLoadMeter meter_;
    Sysfs sysfs_;
    CpufreqPolicy policy_;
};

TEST_F(CpufreqTest, GovernorSwitchingThroughSysfs)
{
    EXPECT_EQ(sysfs_.Read("/sys/cpufreq/scaling_governor"), "none");
    EXPECT_TRUE(sysfs_.Write("/sys/cpufreq/scaling_governor", "performance"));
    EXPECT_EQ(sysfs_.Read("/sys/cpufreq/scaling_governor"), "performance");
    EXPECT_EQ(cluster_.level(), 17);
    EXPECT_TRUE(sysfs_.Write("/sys/cpufreq/scaling_governor", "powersave"));
    EXPECT_EQ(cluster_.level(), 0);
}

TEST_F(CpufreqTest, UnknownGovernorRejected)
{
    EXPECT_FALSE(sysfs_.Write("/sys/cpufreq/scaling_governor", "bogus"));
    EXPECT_EQ(policy_.governor_name(), "none");
}

TEST_F(CpufreqTest, AvailableGovernorsListsAll)
{
    const std::string avail = sysfs_.Read("/sys/cpufreq/scaling_available_governors");
    EXPECT_NE(avail.find("userspace"), std::string::npos);
    EXPECT_NE(avail.find("performance"), std::string::npos);
    EXPECT_NE(avail.find("powersave"), std::string::npos);
}

TEST_F(CpufreqTest, UserspaceSetspeedSetsFrequency)
{
    sysfs_.Write("/sys/cpufreq/scaling_governor", "userspace");
    // 1.4976 GHz = 1497600 kHz (level 10).
    EXPECT_TRUE(sysfs_.Write("/sys/cpufreq/scaling_setspeed", "1497600"));
    EXPECT_EQ(cluster_.level(), 9);
    EXPECT_EQ(sysfs_.Read("/sys/cpufreq/scaling_cur_freq"), "1497600");
}

TEST_F(CpufreqTest, SetspeedRejectedUnderNonUserspaceGovernor)
{
    sysfs_.Write("/sys/cpufreq/scaling_governor", "performance");
    EXPECT_FALSE(sysfs_.Write("/sys/cpufreq/scaling_setspeed", "300000"));
    EXPECT_EQ(cluster_.level(), 17);
}

TEST_F(CpufreqTest, SetspeedRejectsGarbage)
{
    sysfs_.Write("/sys/cpufreq/scaling_governor", "userspace");
    EXPECT_FALSE(sysfs_.Write("/sys/cpufreq/scaling_setspeed", "not-a-number"));
    EXPECT_FALSE(sysfs_.Write("/sys/cpufreq/scaling_setspeed", "-5"));
}

TEST_F(CpufreqTest, ScalingLimitsClampRequests)
{
    policy_.SetLevelLimits(2, 10);
    policy_.RequestLevel(0);
    EXPECT_EQ(cluster_.level(), 2);
    policy_.RequestLevel(17);
    EXPECT_EQ(cluster_.level(), 10);
}

TEST_F(CpufreqTest, MinMaxFreqFilesWork)
{
    // scaling_min_freq to level 3 (729600 kHz).
    EXPECT_TRUE(sysfs_.Write("/sys/cpufreq/scaling_min_freq", "729600"));
    EXPECT_EQ(policy_.min_level_limit(), 3);
    EXPECT_EQ(sysfs_.Read("/sys/cpufreq/scaling_min_freq"), "729600");
    // Current level is re-clamped upward.
    EXPECT_EQ(cluster_.level(), 3);
    // scaling_max_freq below min is rejected.
    EXPECT_FALSE(sysfs_.Write("/sys/cpufreq/scaling_max_freq", "300000"));
}

TEST_F(CpufreqTest, AvailableFrequenciesMatchesTableII)
{
    const std::string freqs = sysfs_.Read("/sys/cpufreq/scaling_available_frequencies");
    EXPECT_NE(freqs.find("300000"), std::string::npos);
    EXPECT_NE(freqs.find("2649600"), std::string::npos);
}

TEST_F(CpufreqTest, RequestFrequencyAtOrAbove)
{
    sysfs_.Write("/sys/cpufreq/scaling_governor", "userspace");
    policy_.RequestFrequencyAtOrAbove(Gigahertz(1.0));
    EXPECT_EQ(cluster_.level(), 6);  // 1.0368 GHz is the first ≥ 1.0
}

}  // namespace
}  // namespace aeo
