/** Scenario generation: determinism, spec conformance, JSON round-trips. */
#include "chaos/scenario_generator.h"

#include <cmath>
#include <set>

#include "chaos/scenario.h"
#include "gtest/gtest.h"

namespace aeo::chaos {
namespace {

bool
SameActions(const ChaosScenario& a, const ChaosScenario& b)
{
    if (a.seed != b.seed || a.actions.size() != b.actions.size()) {
        return false;
    }
    for (size_t i = 0; i < a.actions.size(); ++i) {
        if (a.actions[i].cls != b.actions[i].cls ||
            a.actions[i].start_s != b.actions[i].start_s ||
            a.actions[i].duration_s != b.actions[i].duration_s ||
            a.actions[i].intensity != b.actions[i].intensity) {
            return false;
        }
    }
    return true;
}

TEST(ScenarioGeneratorTest, SameSeedSameScenarioBitForBit)
{
    const CampaignSpec spec;
    const ChaosScenario a = GenerateScenario(spec, 42);
    const ChaosScenario b = GenerateScenario(spec, 42);
    EXPECT_TRUE(SameActions(a, b));
    EXPECT_FALSE(a.actions.empty());
}

TEST(ScenarioGeneratorTest, DifferentSeedsDiffer)
{
    const CampaignSpec spec;
    const ChaosScenario a = GenerateScenario(spec, 1);
    const ChaosScenario b = GenerateScenario(spec, 2);
    EXPECT_FALSE(SameActions(a, b));
}

TEST(ScenarioGeneratorTest, RespectsSpecBounds)
{
    CampaignSpec spec;
    spec.duration_s = 90.0;
    spec.max_actions = 12;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        const ChaosScenario scenario = GenerateScenario(spec, seed);
        EXPECT_LE(scenario.actions.size(),
                  static_cast<size_t>(spec.max_actions));
        double last_start = 0.0;
        for (const ScenarioAction& action : scenario.actions) {
            EXPECT_GE(action.start_s, 0.0);
            EXPECT_LT(action.start_s, spec.duration_s);
            EXPECT_GE(action.duration_s, 0.0);
            EXPECT_GE(action.intensity, 0.0);
            EXPECT_LE(action.intensity, 1.0);
            EXPECT_GE(action.start_s, last_start);  // sorted
            last_start = action.start_s;
        }
    }
}

TEST(ScenarioGeneratorTest, ZeroWeightDisablesClass)
{
    CampaignSpec spec;
    spec.class_weights.assign(kFaultClassCount, 1.0);
    spec.class_weights[static_cast<int>(FaultClass::kThermalCap)] = 0.0;
    spec.class_weights[static_cast<int>(FaultClass::kPathDisappear)] = 0.0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        const ChaosScenario scenario = GenerateScenario(spec, seed);
        for (const ScenarioAction& action : scenario.actions) {
            EXPECT_NE(action.cls, FaultClass::kThermalCap);
            EXPECT_NE(action.cls, FaultClass::kPathDisappear);
        }
    }
}

TEST(ScenarioGeneratorTest, AnchoringSnapsBurstsToPhaseBoundaries)
{
    CampaignSpec spec;
    spec.phase_anchor_period_s = 10.0;
    spec.anchor_probability = 1.0;  // every burst anchors
    spec.storm_probability = 0.0;   // storms stagger members off the anchor
    const ChaosScenario scenario = GenerateScenario(spec, 7);
    ASSERT_FALSE(scenario.actions.empty());
    for (const ScenarioAction& action : scenario.actions) {
        const double remainder =
            std::fmod(action.start_s, spec.phase_anchor_period_s);
        EXPECT_NEAR(std::min(remainder,
                             spec.phase_anchor_period_s - remainder),
                    0.0, 1e-9);
    }
}

TEST(ScenarioGeneratorTest, IntensityRampRaisesLateIntensities)
{
    CampaignSpec spec;
    spec.base_intensity = 0.1;
    spec.intensity_ramp = 0.8;
    spec.duration_s = 300.0;
    double early_sum = 0.0, late_sum = 0.0;
    int early_n = 0, late_n = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        for (const ScenarioAction& action :
             GenerateScenario(spec, seed).actions) {
            if (action.start_s < spec.duration_s / 3.0) {
                early_sum += action.intensity;
                ++early_n;
            } else if (action.start_s > 2.0 * spec.duration_s / 3.0) {
                late_sum += action.intensity;
                ++late_n;
            }
        }
    }
    ASSERT_GT(early_n, 0);
    ASSERT_GT(late_n, 0);
    EXPECT_GT(late_sum / late_n, early_sum / early_n + 0.2);
}

TEST(ScenarioGeneratorTest, ScenarioJsonRoundTrips)
{
    const ChaosScenario scenario = GenerateScenario(CampaignSpec{}, 99);
    const JsonValue json = ScenarioToJson(scenario);
    ChaosScenario decoded;
    std::string error;
    ASSERT_TRUE(ScenarioFromJson(json, &decoded, &error)) << error;
    EXPECT_TRUE(SameActions(scenario, decoded));
    // And byte-identical re-serialization (the crash-bundle property).
    EXPECT_EQ(json.Dump(2), ScenarioToJson(decoded).Dump(2));
}

TEST(ScenarioGeneratorTest, CampaignSpecJsonRoundTrips)
{
    CampaignSpec spec;
    spec.duration_s = 77.0;
    spec.class_weights[2] = 0.25;
    spec.storm_probability = 0.5;
    spec.phase_anchor_period_s = 5.0;
    const JsonValue json = CampaignSpecToJson(spec);
    CampaignSpec decoded;
    std::string error;
    ASSERT_TRUE(CampaignSpecFromJson(json, &decoded, &error)) << error;
    EXPECT_EQ(json.Dump(2), CampaignSpecToJson(decoded).Dump(2));
    EXPECT_EQ(decoded.duration_s, 77.0);
    EXPECT_EQ(decoded.class_weights[2], 0.25);
}

TEST(ScenarioGeneratorTest, RejectsMalformedScenarioJson)
{
    JsonValue bad = JsonValue::MakeObject();
    bad.Set("seed", SeedToJson(1));
    JsonValue actions = JsonValue::MakeArray();
    JsonValue action = JsonValue::MakeObject();
    action.Set("class", "no-such-fault");
    actions.Append(std::move(action));
    bad.Set("actions", std::move(actions));
    ChaosScenario decoded;
    std::string error;
    EXPECT_FALSE(ScenarioFromJson(bad, &decoded, &error));
    EXPECT_NE(error.find("no-such-fault"), std::string::npos) << error;
}

}  // namespace
}  // namespace aeo::chaos
