/**
 * @file
 * Behavioural tests for the decision-making governors: ondemand,
 * interactive and cpubw_hwmon — the algorithms whose weaknesses motivate
 * the paper (§II).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "kernel/cpufreq.h"
#include "kernel/devfreq.h"
#include "kernel/mpdecision.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

/** Drives synthetic load into the meter while the simulator runs. */
class LoadDriver {
  public:
    LoadDriver(Simulator* sim, CpuLoadMeter* meter) : sim_(sim), meter_(meter) {}

    /**
     * Runs for @p duration with a constant busy-core count; the busiest-core
     * load is modelled as busy/4 (a balanced spread over the four cores).
     */
    void
    Run(SimTime duration, double busy_cores)
    {
        // Feed the meter in 5 ms slices so governor windows see it smoothly.
        const SimTime slice = SimTime::Millis(5);
        SimTime done;
        while (done < duration) {
            meter_->Advance(busy_cores, std::min(1.0, busy_cores / 4.0), slice);
            sim_->RunFor(slice);
            done += slice;
        }
    }

  private:
    Simulator* sim_;
    CpuLoadMeter* meter_;
};

class OndemandTest : public ::testing::Test {
  protected:
    OndemandTest()
        : cluster_(MakeNexus6FrequencyTable(), 4),
          policy_(&sim_, &cluster_, &meter_, &sysfs_, "/sys/cpufreq"),
          driver_(&sim_, &meter_)
    {
        policy_.SetGovernor("ondemand");
    }

    Simulator sim_;
    CpuCluster cluster_;
    CpuLoadMeter meter_;
    Sysfs sysfs_;
    CpufreqPolicy policy_;
    LoadDriver driver_;
};

TEST_F(OndemandTest, HighLoadJumpsToMaxFrequency)
{
    driver_.Run(SimTime::Millis(200), 4.0);
    EXPECT_EQ(cluster_.level(), 17);
}

TEST_F(OndemandTest, ModerateLoadDecaysProportionally)
{
    driver_.Run(SimTime::Millis(200), 4.0);
    ASSERT_EQ(cluster_.level(), 17);
    // Load 0.45: ondemand steps down toward f·load/target, not to the floor.
    driver_.Run(SimTime::Millis(60), 1.8);
    EXPECT_LT(cluster_.level(), 17);
    EXPECT_GT(cluster_.level(), 0);
    // Near-idle load eventually settles at the bottom.
    driver_.Run(SimTime::FromSeconds(1), 0.05);
    EXPECT_EQ(cluster_.level(), 0);
}

TEST_F(OndemandTest, IdleSettlesAtMinimum)
{
    driver_.Run(SimTime::FromSeconds(1), 0.0);
    EXPECT_EQ(cluster_.level(), 0);
}

class InteractiveTest : public ::testing::Test {
  protected:
    InteractiveTest()
        : cluster_(MakeNexus6FrequencyTable(), 4),
          policy_(&sim_, &cluster_, &meter_, &sysfs_, "/sys/cpufreq"),
          driver_(&sim_, &meter_)
    {
        policy_.SetGovernor("interactive");
    }

    Simulator sim_;
    CpuCluster cluster_;
    CpuLoadMeter meter_;
    Sysfs sysfs_;
    CpufreqPolicy policy_;
    LoadDriver driver_;
};

TEST_F(InteractiveTest, BurstJumpsToHispeedFreqFirst)
{
    // One sampling window of saturated load: jump to hispeed (level 10,
    // 1.4976 GHz), not directly to max.
    driver_.Run(SimTime::Millis(25), 4.0);
    EXPECT_EQ(cluster_.level(), 9);
}

TEST_F(InteractiveTest, SustainedLoadClimbsAboveHispeed)
{
    driver_.Run(SimTime::Millis(300), 4.0);
    EXPECT_EQ(cluster_.level(), 17);
}

TEST_F(InteractiveTest, MinSampleTimeHoldsRaisedFrequency)
{
    driver_.Run(SimTime::Millis(25), 4.0);
    ASSERT_EQ(cluster_.level(), 9);
    // Load vanishes: within min_sample_time (80 ms) the frequency must hold.
    driver_.Run(SimTime::Millis(40), 0.0);
    EXPECT_EQ(cluster_.level(), 9);
    // After the hold expires it drops.
    driver_.Run(SimTime::Millis(200), 0.0);
    EXPECT_EQ(cluster_.level(), 0);
}

TEST_F(InteractiveTest, ProportionalDownstepsPassThroughMidLevels)
{
    // A burst raises the frequency; when the load settles low, the governor
    // steps toward f·load/target_load — with a constant synthetic load the
    // target cascades downward, but each step must be proportional (through
    // mid levels), not a cliff to the floor.
    driver_.Run(SimTime::Millis(300), 4.0);
    ASSERT_EQ(cluster_.level(), 17);
    std::vector<int> visited;
    cluster_.SetPostChangeListener([&] { visited.push_back(cluster_.level()); });
    driver_.Run(SimTime::Millis(500), 1.4);
    cluster_.SetPostChangeListener(nullptr);
    ASSERT_FALSE(visited.empty());
    // First drop from the top lands at a mid level (load 0.35 of 2.65 GHz
    // → ≈1.03 GHz → level 7), not at the bottom.
    EXPECT_GT(visited.front(), 0);
    EXPECT_LT(visited.front(), 9);
    EXPECT_EQ(cluster_.level(), 0);  // constant load cascades to the floor
}

class CpubwHwmonTest : public ::testing::Test {
  protected:
    CpubwHwmonTest()
        : bus_(MakeNexus6BandwidthTable()),
          policy_(&sim_, &bus_, &meter_, &sysfs_, "/sys/devfreq")
    {
        policy_.SetGovernor("cpubw_hwmon");
    }

    /** Feeds traffic and runs the clock. */
    void
    Drive(SimTime duration, double gbps)
    {
        const SimTime slice = SimTime::Millis(5);
        SimTime done;
        while (done < duration) {
            meter_.Advance(gbps, slice);
            sim_.RunFor(slice);
            done += slice;
        }
    }

    Simulator sim_;
    MemoryBus bus_;
    BusTrafficMeter meter_;
    Sysfs sysfs_;
    DevfreqPolicy policy_;
};

TEST_F(CpubwHwmonTest, TrafficBurstRaisesBandwidthImmediately)
{
    // 2 GB/s of traffic on a 762 MBps bus: next sample must provision
    // 2000 × 1.6 = 3200 MBps → level 6 (3952).
    Drive(SimTime::Millis(60), 2.0);
    EXPECT_GE(bus_.level(), 5);
}

TEST_F(CpubwHwmonTest, ReductionUsesExponentialBackoff)
{
    Drive(SimTime::Millis(60), 2.0);
    const int raised = bus_.level();
    ASSERT_GE(raised, 5);
    // Traffic stops. The first down-step needs few samples, later ones
    // exponentially more — so the decay is much slower than the rise.
    Drive(SimTime::Millis(200), 0.0);
    const int after_200ms = bus_.level();
    EXPECT_LT(after_200ms, raised);
    EXPECT_GT(after_200ms, 0);  // still elevated: back-off in action
    // Eventually it floors.
    Drive(SimTime::FromSeconds(30), 0.0);
    EXPECT_EQ(bus_.level(), 0);
}

TEST_F(CpubwHwmonTest, SteadyTrafficHoldsLevel)
{
    Drive(SimTime::Millis(300), 1.0);  // needs 1600 MBps → level 3 (2288)
    const int level = bus_.level();
    EXPECT_GE(level, 3);
    Drive(SimTime::FromSeconds(2), 1.0);
    EXPECT_EQ(bus_.level(), level);
}

class LulzactiveTest : public ::testing::Test {
  protected:
    LulzactiveTest()
        : cluster_(MakeNexus6FrequencyTable(), 4),
          policy_(&sim_, &cluster_, &meter_, &sysfs_, "/sys/cpufreq"),
          driver_(&sim_, &meter_)
    {
        policy_.SetGovernor("lulzactive");
    }

    Simulator sim_;
    CpuCluster cluster_;
    CpuLoadMeter meter_;
    Sysfs sysfs_;
    CpufreqPolicy policy_;
    LoadDriver driver_;
};

TEST_F(LulzactiveTest, FullLoadRampsThroughTheStagesNotAJump)
{
    // Unlike interactive's hispeed jump, lulzactive climbs pump_up_step (2)
    // levels per decision, and up_sample_time (20 ms) gates decisions: after
    // 35 ms of saturation exactly one change fits, so the level is still far
    // from the top of the 18-entry table.
    driver_.Run(SimTime::Millis(35), 4.0);
    EXPECT_GT(cluster_.level(), 0);
    EXPECT_LE(cluster_.level(), 4);
    // Sustained saturation walks the remaining stages to the ceiling.
    driver_.Run(SimTime::Millis(250), 4.0);
    EXPECT_EQ(cluster_.level(), 17);
}

TEST_F(LulzactiveTest, DescentIsDwellGatedAndSlowerThanTheClimb)
{
    driver_.Run(SimTime::Millis(250), 4.0);
    ASSERT_EQ(cluster_.level(), 17);
    // down_sample_time (40 ms) with pump_down_step 1: roughly one level per
    // 40 ms, a 4x slower ramp than the climb (2 levels per 20 ms).
    driver_.Run(SimTime::Millis(210), 0.0);
    EXPECT_GE(cluster_.level(), 11);
    EXPECT_LT(cluster_.level(), 17);
    driver_.Run(SimTime::FromSeconds(1), 0.0);
    EXPECT_EQ(cluster_.level(), 0);
}

TEST_F(LulzactiveTest, ModerateLoadDescendsBecauseThereIsNoHoldBand)
{
    driver_.Run(SimTime::Millis(250), 4.0);
    ASSERT_EQ(cluster_.level(), 17);
    // Load 0.5 sits below inc_cpu_load (0.70), and with no hold band
    // between its thresholds lulzactive pumps all the way down to the floor.
    driver_.Run(SimTime::FromSeconds(1), 2.0);
    EXPECT_EQ(cluster_.level(), 0);
}

TEST_F(LulzactiveTest, RespectsTheMinLevelLimit)
{
    policy_.SetLevelLimits(5, 17);
    driver_.Run(SimTime::Millis(250), 4.0);
    ASSERT_EQ(cluster_.level(), 17);
    driver_.Run(SimTime::FromSeconds(2), 0.0);
    EXPECT_EQ(cluster_.level(), 5);
}

/**
 * Lulzactive alongside the mpdecision hotplug daemon — the configuration a
 * community kernel actually ships. The two sample different signals: the
 * governor keys on the busiest core, the daemon on total busy per online
 * core, so a single-threaded pegged task splits them: frequency saturates
 * while cores are taken offline.
 */
TEST(LulzactiveWithMpdecisionTest, PeggedSingleThreadMaxesFreqWhileCoresOffline)
{
    Simulator sim;
    CpuCluster cluster(MakeNexus6FrequencyTable(), 4);
    CpuLoadMeter meter;
    Sysfs sysfs;
    CpufreqPolicy policy(&sim, &cluster, &meter, &sysfs, "/sys/cpufreq");
    policy.SetGovernor("lulzactive");
    Mpdecision hotplug(&sim, &cluster, &meter);
    hotplug.Start();

    // One core pegged at 100%: total busy 1.0, busiest-core load 1.0.
    const SimTime slice = SimTime::Millis(5);
    SimTime done;
    while (done < SimTime::FromSeconds(2)) {
        meter.Advance(1.0, 1.0, slice);
        sim.RunFor(slice);
        done += slice;
    }

    // Governor: busiest core saturated → ceiling.
    EXPECT_EQ(cluster.level(), 17);
    // Daemon: 1.0/4 = 0.25 busy per core offlines one; 1.0/3 ≈ 0.33 sits
    // between the thresholds (0.30, 0.80) and holds.
    EXPECT_EQ(cluster.online_cores(), 3);

    // Stopping the daemon restores the full core count (the paper's §IV-A
    // experimental setup) without disturbing the governor's frequency.
    hotplug.Stop();
    EXPECT_EQ(cluster.online_cores(), 4);
    EXPECT_EQ(cluster.level(), 17);
}

}  // namespace
}  // namespace aeo
