/**
 * @file
 * A replayed crash bundle is refused with an error naming the field, never
 * run with a default, a panic or an undefined conversion: each case below
 * mutates one field of a bundle written by CrashBundleToJson().
 */
#include "chaos/crash_bundle.h"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace aeo::chaos {
namespace {

/** A bundle as the campaign bench writes it, with one action and one
 * verdict. */
JsonValue
WrittenBundle()
{
    CrashBundle bundle;
    bundle.app = "AngryBirds";
    bundle.target_gips = 0.2;
    bundle.profile_seed = 5242;
    bundle.device_seed = 0x5eedc0de5eedc0deull;
    bundle.scenario.seed = 77;
    bundle.scenario.actions.push_back(
        ScenarioAction{FaultClass::kThermalCap, 4.0, 10.0, 0.7});
    bundle.report.verdicts.push_back(MonitorVerdict{"actuation-consistency", 2, 9,
                                                    18.0, "clamped"});
    bundle.report.total_violations = 2;
    bundle.report.first_violation_cycle = 9;
    bundle.report.first_violation_monitor = "actuation-consistency";
    return CrashBundleToJson(bundle);
}

/** @p doc with the member at @p path set to @p value, or dropped when
 * @p value is empty. Numeric path elements index arrays. */
JsonValue
Mutated(const JsonValue& doc, std::span<const std::string> path,
        const std::optional<JsonValue>& value)
{
    if (doc.is_array()) {
        JsonValue out = JsonValue::MakeArray();
        for (size_t i = 0; i < doc.items().size(); ++i) {
            if (std::to_string(i) != path.front()) {
                out.Append(doc.items()[i]);
            } else if (path.size() > 1) {
                out.Append(Mutated(doc.items()[i], path.subspan(1), value));
            } else if (value) {
                out.Append(*value);
            }
        }
        return out;
    }
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [key, member] : doc.members()) {
        if (key != path.front()) {
            out.Set(key, member);
        } else if (path.size() > 1) {
            out.Set(key, Mutated(member, path.subspan(1), value));
        } else if (value) {
            out.Set(key, *value);
        }
    }
    return out;
}

struct Mutation {
    std::vector<std::string> path;
    std::optional<JsonValue> value;
    /** What the error must contain: the field's name. */
    std::string field;
};

JsonValue
Numbers(int count)
{
    JsonValue array = JsonValue::MakeArray();
    for (int i = 0; i < count; ++i) {
        array.Append(1.0);
    }
    return array;
}

TEST(CrashBundleValidationTest, TheWrittenBundleParses)
{
    const CrashBundleReadResult read = ParseCrashBundle(WrittenBundle().Dump(2));
    ASSERT_TRUE(read.ok) << read.error;
    EXPECT_EQ(read.bundle.device_seed, 0x5eedc0de5eedc0deull);
    EXPECT_EQ(read.bundle.scenario.actions.size(), 1u);
    EXPECT_EQ(read.bundle.report.first_violation_cycle, 9);
    EXPECT_EQ(read.bundle.report.verdicts.size(), 1u);
}

TEST(CrashBundleValidationTest, EachMutationIsAnErrorNamingTheField)
{
    const std::vector<Mutation> mutations = {
        {{"readback_verification"}, JsonValue("no"), "readback_verification"},
        {{"version"}, JsonValue("1"), "version"},
        {{"readback_verification"}, std::nullopt, "readback_verification"},
        {{"enable_thermal"}, std::nullopt, "enable_thermal"},
        {{"reengage"}, std::nullopt, "reengage"},
        {{"profile_seed"}, JsonValue("12abc"), "profile_seed"},
        {{"profile_seed"}, JsonValue("18446744073709551616"), "profile_seed"},
        {{"device_seed"}, JsonValue(-1), "device_seed"},
        {{"device_seed"}, JsonValue("-1"), "device_seed"},
        {{"target_gips"}, std::nullopt, "target_gips"},
        {{"scenario", "seed"}, JsonValue(" 77"), "seed"},
        {{"scenario", "actions", "0", "duration_s"}, std::nullopt, "duration_s"},
        {{"scenario", "actions", "0", "start_s"}, std::nullopt, "start_s"},
        {{"scenario", "actions", "0", "intensity"}, std::nullopt, "intensity"},
        {{"scenario", "actions", "0", "intensity"}, JsonValue(1.5), "intensity"},
        {{"spec", "class_weights"}, Numbers(7), "class_weights"},
        {{"spec", "class_weights", "2"}, JsonValue("heavy"), "class_weights"},
        {{"spec", "max_actions"}, JsonValue(2.5), "max_actions"},
        {{"spec", "storm_probability"}, std::nullopt, "storm_probability"},
        {{"report"}, std::nullopt, "report"},
        {{"report", "first_violation_cycle"}, std::nullopt, "first_violation_cycle"},
        {{"report", "verdicts", "0", "monitor"}, JsonValue(3), "monitor"},
    };
    const JsonValue bundle = WrittenBundle();
    for (const Mutation& mutation : mutations) {
        const std::string text =
            Mutated(bundle, mutation.path, mutation.value).Dump();
        const CrashBundleReadResult read = ParseCrashBundle(text);
        EXPECT_FALSE(read.ok) << text;
        EXPECT_NE(read.error.find(mutation.field), std::string::npos)
            << mutation.field << ": " << read.error;
    }
}

TEST(CrashBundleValidationTest, AWrongWeightCountNamesTheClassCount)
{
    const CrashBundleReadResult read = ParseCrashBundle(
        Mutated(WrittenBundle(), std::vector<std::string>{"spec", "class_weights"},
                Numbers(7))
            .Dump());
    EXPECT_FALSE(read.ok);
    EXPECT_NE(read.error.find(std::to_string(kFaultClassCount) + " numbers"),
              std::string::npos)
        << read.error;
}

}  // namespace
}  // namespace aeo::chaos
