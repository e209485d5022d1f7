/**
 * End-to-end chaos campaigns: clean runs hold every invariant, a planted
 * feasible-set-mask off-by-one is caught by a seeded campaign, the failing
 * scenario shrinks to a minimal fault list, and the crash bundle replays
 * to the same first-violation cycle at any batch worker count.
 */
#include "chaos/campaign.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "chaos/crash_bundle.h"
#include "chaos/platform_decorator.h"
#include "chaos/scenario_shrinker.h"
#include "core/batch_runner.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"
#include "gtest/gtest.h"

namespace aeo::chaos {
namespace {

constexpr const char kApp[] = "AngryBirds";
constexpr uint64_t kSeed = 4242;

/**
 * THE PLANTED BUG: a thermals seam whose cap read-back is off by one
 * level. The controller masks its feasible set one row too high and keeps
 * planning rows the throttled device silently clamps away — its believed
 * cap sits above the kernel's advertised cap for the whole throttled
 * window, exactly the belief-divergence defect the actuation-consistency
 * monitor exists to catch.
 */
class OffByOneThermals : public platform::Thermals {
  public:
    explicit OffByOneThermals(platform::Thermals* inner) : inner_(inner) {}
    double ReadZoneTempC() override { return inner_->ReadZoneTempC(); }
    int ReadCpuCapLevel() override
    {
        const int cap = inner_->ReadCpuCapLevel();
        return cap == platform::kNoCapLevel ? cap : cap + 1;
    }

  private:
    platform::Thermals* inner_;
};

class CapOffByOnePlatform : public ForwardingPlatform {
  public:
    explicit CapOffByOnePlatform(platform::Platform* inner)
        : ForwardingPlatform(inner), thermals_(&inner->thermals())
    {
    }
    platform::Thermals& thermals() override { return thermals_; }

  private:
    OffByOneThermals thermals_;
};

/** A shared clean profile (profiling is the slow part of a campaign). */
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

/** Campaign options for the planted-bug fixture (see test comments). */
CampaignOptions
FixtureOptions(bool plant_bug)
{
    CampaignOptions options;
    options.app = kApp;
    options.table = &SharedTable();
    options.target_gips = 0.22;
    options.spec.duration_s = 60.0;
    // Park the staged cap one level below AngryBirds' top profiled row
    // (levels {0, 2, 4}): the correct read masks row 4 away, while the
    // off-by-one read believes cap 4 and keeps the full table feasible —
    // a sustained believed-above-advertised divergence.
    options.msm_thermal.min_cap_level = 3;
    options.msm_thermal.levels_per_step = 4;
    // Neuter mismatch self-healing: read-back clamp learning would lower
    // the believed cap onto the advertised one within a couple of cycles,
    // hiding the defect. A huge confirm horizon is a legitimate (if
    // unwise) tuning, not a test-only backdoor.
    options.controller.cap_confirm_cycles = 1 << 20;
    if (plant_bug) {
        options.decorate_platform = [](platform::Platform* inner) {
            return std::unique_ptr<platform::Platform>(
                new CapOffByOnePlatform(inner));
        };
    }
    return options;
}

/** The seeded compound scenario the campaign drives at the fixture. */
ChaosScenario
FixtureScenario()
{
    ChaosScenario scenario;
    scenario.seed = kSeed;
    scenario.actions = {
        {FaultClass::kActuationBusy, 4.0, 3.0, 0.3},
        {FaultClass::kPmuDrop, 8.0, 2.0, 0.3},
        {FaultClass::kThermalCap, 12.0, 44.0, 1.0},
        {FaultClass::kMeterDrop, 20.0, 2.0, 0.3},
        {FaultClass::kActuationBusy, 30.0, 3.0, 0.2},
    };
    return scenario;
}

TEST(ChaosCampaignTest, CleanCampaignHoldsEveryInvariant)
{
    CampaignOptions options;
    options.app = kApp;
    options.table = &SharedTable();
    options.target_gips = 0.20;
    options.spec.duration_s = 40.0;
    ChaosScenario empty;
    empty.seed = 1;
    const CampaignReport report = RunCampaign(options, empty);
    EXPECT_TRUE(report.clean()) << report.first_violation_monitor;
    EXPECT_GT(report.cycles, 0u);
    EXPECT_EQ(report.fault_events, 0u);
    EXPECT_EQ(report.verdicts.size(), 7u);
}

TEST(ChaosCampaignTest, ReportsAreDeterministic)
{
    const CampaignOptions options = FixtureOptions(false);
    const ChaosScenario scenario = FixtureScenario();
    const CampaignReport a = RunCampaign(options, scenario);
    const CampaignReport b = RunCampaign(options, scenario);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energy_j, b.energy_j);  // bit-identical, not just close
    EXPECT_EQ(a.avg_gips, b.avg_gips);
    EXPECT_EQ(a.fault_events, b.fault_events);
    EXPECT_EQ(a.first_violation_cycle, b.first_violation_cycle);
}

TEST(ChaosCampaignTest, PlantedCapMaskBugIsCaughtByCampaign)
{
    const CampaignReport buggy =
        RunCampaign(FixtureOptions(true), FixtureScenario());
    ASSERT_FALSE(buggy.clean());
    EXPECT_EQ(buggy.first_violation_monitor, "actuation-consistency");
    EXPECT_GE(buggy.first_violation_cycle, 0);

    // Same campaign on the correct platform: every invariant holds, so the
    // verdict is attributable to the planted defect alone.
    const CampaignReport correct =
        RunCampaign(FixtureOptions(false), FixtureScenario());
    EXPECT_TRUE(correct.clean()) << correct.first_violation_monitor;
}

TEST(ChaosCampaignTest, FailureShrinksToMinimalFaultListAndReplays)
{
    const CampaignOptions buggy = FixtureOptions(true);
    const ScenarioOracle oracle = [&buggy](const ChaosScenario& candidate) {
        return !RunCampaign(buggy, candidate).clean();
    };
    const ShrinkResult shrunk = ShrinkScenario(FixtureScenario(), oracle);
    ASSERT_TRUE(shrunk.failed_initially);
    // The acceptance bar: a minimal reproducer of at most 3 fault rules.
    ASSERT_LE(shrunk.scenario.actions.size(), 3u);
    bool has_thermal_cap = false;
    for (const ScenarioAction& action : shrunk.scenario.actions) {
        has_thermal_cap |= action.cls == FaultClass::kThermalCap;
    }
    EXPECT_TRUE(has_thermal_cap);

    // Capture the crash bundle, round-trip it through disk...
    const CampaignReport minimal = RunCampaign(buggy, shrunk.scenario);
    ASSERT_FALSE(minimal.clean());
    CrashBundle bundle;
    bundle.app = kApp;
    bundle.target_gips = buggy.target_gips;
    bundle.profile_seed = kSeed + 1000;
    bundle.profile_runs = 1;
    bundle.device_seed = shrunk.scenario.seed ^ 0x5eedc0de5eedc0deull;
    bundle.cap_confirm_cycles = buggy.controller.cap_confirm_cycles;
    bundle.spec = buggy.spec;
    bundle.scenario = shrunk.scenario;
    bundle.report = minimal;
    const std::string path = "chaos_campaign_test_bundle.json";
    ASSERT_TRUE(WriteCrashBundle(path, bundle));
    const CrashBundleReadResult read = ReadCrashBundle(path);
    std::remove(path.c_str());
    ASSERT_TRUE(read.ok) << read.error;
    ASSERT_EQ(read.bundle.scenario.actions.size(),
              shrunk.scenario.actions.size());
    EXPECT_EQ(read.bundle.report.first_violation_cycle,
              minimal.first_violation_cycle);

    // ...and replay it at --jobs=1 and --jobs=4: the first-violation cycle
    // reproduces bit-identically at any worker count.
    CampaignOptions replay = FixtureOptions(true);
    replay.target_gips = read.bundle.target_gips;
    replay.device_seed = read.bundle.device_seed;
    replay.controller.cap_confirm_cycles = read.bundle.cap_confirm_cycles;
    for (const int jobs : {1, 4}) {
        BatchOptions batch;
        batch.jobs = jobs;
        const std::vector<CampaignReport> replays =
            BatchRunner(batch).RunIndexed<CampaignReport>(
                3, [&replay, &read](size_t) {
                    return RunCampaign(replay, read.bundle.scenario);
                });
        for (const CampaignReport& report : replays) {
            EXPECT_EQ(report.first_violation_cycle,
                      minimal.first_violation_cycle)
                << "jobs=" << jobs;
            EXPECT_EQ(report.first_violation_monitor,
                      minimal.first_violation_monitor);
            EXPECT_EQ(report.energy_j, minimal.energy_j);
        }
    }
}

TEST(ChaosCampaignTest, ReportJsonCarriesVerdictsAndTail)
{
    const CampaignReport report =
        RunCampaign(FixtureOptions(true), FixtureScenario());
    const JsonValue json = CampaignReportToJson(report);
    EXPECT_TRUE(json.is_object());
    uint64_t seed = 0;
    EXPECT_TRUE(SeedFromJson(json.At("seed"), &seed));
    EXPECT_EQ(seed, report.seed);
    EXPECT_EQ(json.At("verdicts").items().size(), 7u);
    EXPECT_FALSE(json.At("cycle_tail").items().empty());
    EXPECT_EQ(json.GetString("first_violation_monitor", ""),
              "actuation-consistency");
}

/** A bundle that parses, with @p field set to @p value, or dropped when
 * @p value is null. */
std::string
BundleWith(const std::string& field, const JsonValue& value)
{
    CrashBundle bundle;
    bundle.app = kApp;
    bundle.target_gips = 0.2;
    bundle.device_seed = kSeed;
    const JsonValue full = CrashBundleToJson(bundle);
    JsonValue doc = JsonValue::MakeObject();
    for (const auto& [key, member] : full.members()) {
        if (key != field) {
            doc.Set(key, member);
        }
    }
    if (!value.is_null()) {
        doc.Set(field, value);
    }
    return doc.Dump();
}

TEST(ChaosCampaignTest, BundleParserRejectsGarbage)
{
    EXPECT_FALSE(ParseCrashBundle("not json").ok);
    EXPECT_FALSE(ParseCrashBundle("{}").ok);
    EXPECT_FALSE(
        ParseCrashBundle("{\"version\": 999, \"app\": \"X\"}").ok);

    // The counts a replay feeds the profiler and the controller: a missing,
    // non-integral or out-of-range value is an error naming the field,
    // never a default, a truncation or an undefined conversion.
    ASSERT_TRUE(ParseCrashBundle(BundleWith("", JsonValue())).ok);
    for (const char* field : {"profile_runs", "cap_confirm_cycles"}) {
        for (const JsonValue& value :
             {JsonValue(), JsonValue(0), JsonValue(-3), JsonValue(2.5),
              JsonValue(1e300), JsonValue(2147483648.0), JsonValue("2")}) {
            const CrashBundleReadResult read =
                ParseCrashBundle(BundleWith(field, value));
            EXPECT_FALSE(read.ok) << field << " = " << value.Dump();
            EXPECT_NE(read.error.find(field), std::string::npos) << read.error;
        }
        EXPECT_TRUE(ParseCrashBundle(BundleWith(field, JsonValue(2147483647))).ok)
            << field;
    }
}

}  // namespace
}  // namespace aeo::chaos
