#include "kernel/msm_thermal.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

/** Aggressive tuning so tests exercise several stages in a few polls. */
MsmThermalParams
TestParams()
{
    MsmThermalParams params;
    params.trigger_temp_c = 42.0;
    params.hysteresis_c = 3.0;
    params.levels_per_step = 4;
    params.min_cap_level = 4;
    return params;
}

class MsmThermalTest : public ::testing::Test {
  protected:
    MsmThermalTest()
        : cluster_(MakeNexus6FrequencyTable(), 4),
          policy_(&sim_, &cluster_, &meter_, &sysfs_, "/sys/cpufreq"),
          thermal_(&sim_, &policy_, &model_, &sysfs_, TestParams())
    {
        sysfs_.Write("/sys/cpufreq/scaling_governor", "userspace");
        thermal_.Start();
    }

    /** Runs enough polls for the driver to act @p n times. */
    void Polls(int n) { sim_.RunFor(thermal_.params().poll_period * n); }

    Simulator sim_;
    CpuCluster cluster_;
    CpuLoadMeter meter_;
    Sysfs sysfs_;
    CpufreqPolicy policy_;
    ThermalModel model_;
    MsmThermal thermal_;
};

TEST_F(MsmThermalTest, StaysUnthrottledWhileCool)
{
    Polls(10);
    EXPECT_EQ(thermal_.cap_level(), cluster_.table().max_level());
    EXPECT_EQ(thermal_.stage(), 0);
    EXPECT_EQ(thermal_.clamp_event_count(), 0u);
}

TEST_F(MsmThermalTest, StepsTheCapDownInStagesWhenHot)
{
    model_.Reset(50.0);
    Polls(1);
    EXPECT_EQ(thermal_.cap_level(), cluster_.table().max_level() - 4);
    EXPECT_EQ(thermal_.stage(), 1);
    Polls(1);
    EXPECT_EQ(thermal_.cap_level(), cluster_.table().max_level() - 8);
    EXPECT_EQ(thermal_.stage(), 2);
    EXPECT_EQ(thermal_.clamp_event_count(), 2u);
    EXPECT_EQ(thermal_.max_stage_reached(), 2);
}

TEST_F(MsmThermalTest, CapNeverDropsBelowTheFloor)
{
    model_.Reset(60.0);
    Polls(20);
    EXPECT_EQ(thermal_.cap_level(), TestParams().min_cap_level);
}

TEST_F(MsmThermalTest, ClampIsSilentFromUserspace)
{
    model_.Reset(50.0);
    Polls(20);  // cap is pinned at the floor (level 4)

    // The userspace governor write still reports success...
    EXPECT_TRUE(sysfs_.Write("/sys/cpufreq/scaling_setspeed", "2649600"));
    // ...but the delivered frequency is the capped one; only read-back of
    // scaling_cur_freq / scaling_max_freq exposes the substitution.
    const Gigahertz capped = cluster_.table().FrequencyAt(4);
    const std::string khz =
        StrFormat("%lld", static_cast<long long>(capped.value() * 1e6 + 0.5));
    EXPECT_EQ(sysfs_.Read("/sys/cpufreq/scaling_cur_freq"), khz);
    EXPECT_EQ(sysfs_.Read("/sys/cpufreq/scaling_max_freq"), khz);
    EXPECT_EQ(cluster_.level(), 4);
}

TEST_F(MsmThermalTest, UnwindsOnlyBelowTheHysteresisBand)
{
    model_.Reset(50.0);
    Polls(2);
    const int capped = thermal_.cap_level();

    // Inside the band (trigger − hysteresis < T < trigger): hold.
    model_.Reset(40.0);
    Polls(5);
    EXPECT_EQ(thermal_.cap_level(), capped);

    // Below the band: stage back up to the unthrottled ceiling.
    model_.Reset(38.0);
    Polls(5);
    EXPECT_EQ(thermal_.cap_level(), cluster_.table().max_level());
    EXPECT_GE(thermal_.unclamp_event_count(), 2u);
}

TEST_F(MsmThermalTest, ZoneTempNodeReadsMillidegrees)
{
    model_.Reset(43.5);
    EXPECT_EQ(sysfs_.Read(std::string(kThermalZoneSysfsRoot) + "/temp"),
              "43500");
}

TEST_F(MsmThermalTest, EnabledNodeDisablesAndRestoresThrottling)
{
    const std::string node = std::string(kMsmThermalSysfsRoot) + "/enabled";
    model_.Reset(50.0);
    Polls(2);
    EXPECT_LT(thermal_.cap_level(), cluster_.table().max_level());

    EXPECT_TRUE(sysfs_.Write(node, "N"));
    Polls(1);  // disabled: the next poll restores the full table
    EXPECT_EQ(thermal_.cap_level(), cluster_.table().max_level());
    EXPECT_EQ(sysfs_.Read(node), "N");

    EXPECT_TRUE(sysfs_.Write(node, "Y"));
    Polls(1);  // still hot: throttling resumes
    EXPECT_LT(thermal_.cap_level(), cluster_.table().max_level());
    EXPECT_FALSE(sysfs_.Write(node, "maybe"));
}

TEST_F(MsmThermalTest, TempThresholdNodeRetunesTheTrigger)
{
    const std::string node =
        std::string(kMsmThermalSysfsRoot) + "/temp_threshold";
    EXPECT_EQ(sysfs_.Read(node), "42");
    EXPECT_TRUE(sysfs_.Write(node, "60"));
    model_.Reset(50.0);  // hot for the default trigger, cool for the new one
    Polls(5);
    EXPECT_EQ(thermal_.cap_level(), cluster_.table().max_level());
    EXPECT_FALSE(sysfs_.Write(node, "-5"));
    EXPECT_FALSE(sysfs_.Write(node, "warm"));
}

TEST_F(MsmThermalTest, StopRestoresTheUnthrottledCeiling)
{
    model_.Reset(55.0);
    Polls(3);
    EXPECT_LT(thermal_.cap_level(), cluster_.table().max_level());
    thermal_.Stop();
    EXPECT_EQ(thermal_.cap_level(), cluster_.table().max_level());
    EXPECT_EQ(policy_.effective_max_level(), cluster_.table().max_level());
}

}  // namespace
}  // namespace aeo
