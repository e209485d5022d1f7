/**
 * Timing fault injection end to end: the decorator's plan extraction, the
 * determinism of perturbed campaigns, and the headline acceptance fixture —
 * a planted stale-actuation bug (suspend_resync off: the controller steers
 * on the pre-suspend perf window after a 20 s sleep) caught by the
 * stale-actuation monitor in a seeded campaign, ddmin-shrunk to a minimal
 * reproducer, and replayed bit-identically at any worker count.
 */
#include "chaos/timing_fault.h"

#include <cstdio>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "chaos/campaign.h"
#include "chaos/crash_bundle.h"
#include "chaos/scenario_shrinker.h"
#include "core/batch_runner.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"
#include "gtest/gtest.h"

namespace aeo::chaos {
namespace {

constexpr const char kApp[] = "AngryBirds";
constexpr uint64_t kSeed = 8642;

const ProfileTable&
SharedTable()
{
    static const ProfileTable table = [] {
        const AppScenario scenario = GetAppScenario(kApp);
        ProfilerOptions options;
        options.runs = 1;
        options.cpu_levels = scenario.profile_cpu_levels;
        options.measure_duration = scenario.profile_duration;
        options.seed = kSeed + 1000;
        return OfflineProfiler().Profile(MakeAppSpecByName(kApp), options);
    }();
    return table;
}

/**
 * Campaign options for the stale-actuation fixture. The planted bug is the
 * pre-hardening controller itself: suspend_resync=false consumes the perf
 * window that accumulated before a suspend as if it were one epoch and
 * actuates on it — data stale by the whole sleep.
 */
CampaignOptions
FixtureOptions(bool plant_bug)
{
    CampaignOptions options;
    options.app = kApp;
    options.table = &SharedTable();
    options.target_gips = 0.22;
    options.spec.duration_s = 60.0;
    options.controller.suspend_resync = !plant_bug;
    return options;
}

/**
 * A compound scenario whose essential action is one 20 s suspend window;
 * the rest is decoy noise for the shrinker to strip away.
 */
ChaosScenario
FixtureScenario()
{
    ChaosScenario scenario;
    scenario.seed = kSeed;
    scenario.actions = {
        {FaultClass::kPmuDrop, 4.0, 2.0, 0.3},
        {FaultClass::kSuspendResume, 10.0, 20.0, 1.0},
        {FaultClass::kMeterDrop, 36.0, 2.0, 0.3},
        {FaultClass::kTickJitterStorm, 42.0, 4.0, 0.2},
        {FaultClass::kActuationBusy, 50.0, 3.0, 0.2},
    };
    return scenario;
}

TEST(TimingFaultTest, ExtractTimingPlanKeepsOnlyTimingActions)
{
    const TimingFaultPlan plan = ExtractTimingPlan(FixtureScenario(), 2.0);
    EXPECT_EQ(plan.seed, kSeed);
    EXPECT_DOUBLE_EQ(plan.period_hint_s, 2.0);
    ASSERT_EQ(plan.actions.size(), 2u);
    EXPECT_EQ(plan.actions[0].cls, FaultClass::kSuspendResume);
    EXPECT_EQ(plan.actions[1].cls, FaultClass::kTickJitterStorm);

    ChaosScenario no_timing;
    no_timing.seed = 7;
    no_timing.actions = {{FaultClass::kPmuDrop, 1.0, 1.0, 0.5}};
    EXPECT_TRUE(ExtractTimingPlan(no_timing, 2.0).empty());
}

TEST(TimingFaultTest, IsTimingClassCoversExactlyTheTimingClasses)
{
    EXPECT_TRUE(IsTimingClass(FaultClass::kTickJitterStorm));
    EXPECT_TRUE(IsTimingClass(FaultClass::kTickOverrun));
    EXPECT_TRUE(IsTimingClass(FaultClass::kSuspendResume));
    EXPECT_TRUE(IsTimingClass(FaultClass::kClockSkew));
    EXPECT_FALSE(IsTimingClass(FaultClass::kPmuDrop));
    EXPECT_FALSE(IsTimingClass(FaultClass::kThermalCap));
    EXPECT_FALSE(IsTimingClass(FaultClass::kActuationBusy));
}

TEST(TimingFaultTest, PerturbedCampaignsAreDeterministic)
{
    const CampaignOptions options = FixtureOptions(false);
    const ChaosScenario scenario = FixtureScenario();
    const CampaignReport a = RunCampaign(options, scenario);
    const CampaignReport b = RunCampaign(options, scenario);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energy_j, b.energy_j);  // bit-identical, not just close
    EXPECT_EQ(a.avg_gips, b.avg_gips);
    EXPECT_EQ(a.suspend_gap_ticks, b.suspend_gap_ticks);
    EXPECT_EQ(a.jitter_ticks, b.jitter_ticks);
    EXPECT_EQ(a.stale_guard_cycles, b.stale_guard_cycles);
}

TEST(TimingFaultTest, HardenedControllerSurvivesTheSuspendScenario)
{
    const CampaignReport report =
        RunCampaign(FixtureOptions(false), FixtureScenario());
    EXPECT_TRUE(report.clean()) << report.first_violation_monitor << ": "
                                << report.first_violation_cycle;
    // The suspend window actually hit the loop...
    EXPECT_GT(report.suspend_gap_ticks, 0u);
    // ...and the stale-data guard quarantined the straddling window.
    EXPECT_GT(report.stale_guard_cycles, 0u);
    EXPECT_FALSE(report.fallback);
}

TEST(TimingFaultTest, PlantedStaleActuationBugIsCaughtShrunkAndReplayed)
{
    // THE PLANTED BUG: suspend_resync off. The campaign must fail on the
    // stale-actuation monitor — the controller actuated on perf data that
    // accumulated before the sleep.
    const CampaignOptions buggy = FixtureOptions(true);
    const CampaignReport report = RunCampaign(buggy, FixtureScenario());
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.first_violation_monitor, "stale-actuation");
    EXPECT_GE(report.first_violation_cycle, 0);

    // The hardened controller on the identical scenario holds every
    // invariant, so the verdict is attributable to the planted bug alone.
    const CampaignReport fixed =
        RunCampaign(FixtureOptions(false), FixtureScenario());
    EXPECT_TRUE(fixed.clean()) << fixed.first_violation_monitor;

    // ddmin the five-action scenario against the campaign oracle: the
    // acceptance bar is a reproducer of at most 3 actions (the suspend
    // window alone should survive).
    const ScenarioOracle oracle = [&buggy](const ChaosScenario& candidate) {
        return !RunCampaign(buggy, candidate).clean();
    };
    const ShrinkResult shrunk = ShrinkScenario(FixtureScenario(), oracle);
    ASSERT_TRUE(shrunk.failed_initially);
    ASSERT_LE(shrunk.scenario.actions.size(), 3u);
    bool has_suspend = false;
    for (const ScenarioAction& action : shrunk.scenario.actions) {
        has_suspend |= action.cls == FaultClass::kSuspendResume;
    }
    EXPECT_TRUE(has_suspend);

    // Round-trip the crash bundle through disk...
    const CampaignReport minimal = RunCampaign(buggy, shrunk.scenario);
    ASSERT_FALSE(minimal.clean());
    CrashBundle bundle;
    bundle.app = kApp;
    bundle.target_gips = buggy.target_gips;
    bundle.profile_seed = kSeed + 1000;
    bundle.profile_runs = 1;
    bundle.device_seed = shrunk.scenario.seed ^ 0x5eedc0de5eedc0deull;
    bundle.spec = buggy.spec;
    bundle.scenario = shrunk.scenario;
    bundle.report = minimal;
    const std::string path = "timing_fault_test_bundle.json";
    ASSERT_TRUE(WriteCrashBundle(path, bundle));
    const CrashBundleReadResult read = ReadCrashBundle(path);
    std::remove(path.c_str());
    ASSERT_TRUE(read.ok) << read.error;
    ASSERT_EQ(read.bundle.scenario.actions.size(),
              shrunk.scenario.actions.size());

    // ...and replay it at --jobs=1 and --jobs=4: the first-violation
    // cycle reproduces bit-identically at any worker count.
    CampaignOptions replay = FixtureOptions(true);
    replay.target_gips = read.bundle.target_gips;
    replay.device_seed = read.bundle.device_seed;
    for (const int jobs : {1, 4}) {
        BatchOptions batch;
        batch.jobs = jobs;
        const std::vector<CampaignReport> replays =
            BatchRunner(batch).RunIndexed<CampaignReport>(
                3, [&replay, &read](size_t) {
                    return RunCampaign(replay, read.bundle.scenario);
                });
        for (const CampaignReport& run : replays) {
            EXPECT_EQ(run.first_violation_cycle,
                      minimal.first_violation_cycle)
                << "jobs=" << jobs;
            EXPECT_EQ(run.first_violation_monitor,
                      minimal.first_violation_monitor);
            EXPECT_EQ(run.energy_j, minimal.energy_j);
        }
    }
}

}  // namespace
}  // namespace aeo::chaos
