#include "chaos/scenario.h"

#include <charconv>
#include <cmath>
#include <utility>

#include "common/strings.h"

namespace aeo::chaos {

namespace {

constexpr const char* kFaultClassNames[kFaultClassCount] = {
    "actuation-busy", "actuation-sticky", "silent-clamp",   "pmu-drop",
    "meter-drop",     "path-disappear",   "thermal-cap",    "tick-jitter",
    "tick-overrun",   "suspend-resume",   "clock-skew",
};

}  // namespace

const char*
FaultClassName(FaultClass cls)
{
    const int index = static_cast<int>(cls);
    if (index < 0 || index >= kFaultClassCount) {
        return "?";
    }
    return kFaultClassNames[index];
}

bool
FaultClassFromName(const std::string& name, FaultClass* cls)
{
    for (int i = 0; i < kFaultClassCount; ++i) {
        if (name == kFaultClassNames[i]) {
            *cls = static_cast<FaultClass>(i);
            return true;
        }
    }
    return false;
}

JsonValue
SeedToJson(uint64_t seed)
{
    return JsonValue(StrFormat("%llu", static_cast<unsigned long long>(seed)));
}

bool
SeedFromJson(const JsonValue& value, uint64_t* seed)
{
    if (!value.is_string()) {
        return false;
    }
    const std::string& text = value.AsString();
    const char* end = text.data() + text.size();
    uint64_t parsed = 0;
    const auto [stop, errc] = std::from_chars(text.data(), end, parsed, 10);
    if (text.empty() || errc != std::errc() || stop != end) {
        return false;
    }
    *seed = parsed;
    return true;
}

FieldReader::FieldReader(const JsonValue& object, std::string what,
                         std::string* error)
    : object_(object), what_(std::move(what)), error_(error)
{
    if (!object_.is_object()) {
        Fail("must be a JSON object");
    }
}

void
FieldReader::Fail(const std::string& message)
{
    if (ok_) {
        *error_ = what_ + " " + message;
        ok_ = false;
    }
}

FieldReader&
FieldReader::Member(const char* field, JsonValue::Type type, const JsonValue** out)
{
    // Indexed by JsonValue::Type.
    static constexpr const char* kTypeNames[] = {
        "null", "a bool", "a number", "a string", "an array", "an object"};
    if (!ok_) {
        return *this;
    }
    if (!object_.Has(field)) {
        Fail(StrFormat("has no %s", field));
    } else if (object_.At(field).type() != type) {
        Fail(StrFormat("%s must be %s", field, kTypeNames[static_cast<int>(type)]));
    } else {
        *out = &object_.At(field);
    }
    return *this;
}

FieldReader&
FieldReader::Number(const char* field, double min, double max, double* out)
{
    const JsonValue* member = nullptr;
    if (!Member(field, JsonValue::Type::kNumber, &member).ok()) {
        return *this;
    }
    const double value = member->AsDouble();
    if (value >= min && value <= max) {
        *out = value;
    } else {
        Fail(StrFormat("%s must be in [%.15g, %.15g], got %.15g", field, min, max,
                       value));
    }
    return *this;
}

bool
FieldReader::Integral(const char* field, double min, double max, double* out)
{
    double value = 0.0;
    if (!Number(field, min, max, &value).ok()) {
        return false;
    }
    if (value != std::floor(value)) {
        Fail(StrFormat("%s must be an integer, got %.15g", field, value));
        return false;
    }
    *out = value;
    return true;
}

FieldReader&
FieldReader::Bool(const char* field, bool* out)
{
    const JsonValue* member = nullptr;
    if (Member(field, JsonValue::Type::kBool, &member).ok()) {
        *out = member->AsBool();
    }
    return *this;
}

FieldReader&
FieldReader::String(const char* field, std::string* out)
{
    const JsonValue* member = nullptr;
    if (Member(field, JsonValue::Type::kString, &member).ok()) {
        *out = member->AsString();
    }
    return *this;
}

FieldReader&
FieldReader::Seed(const char* field, uint64_t* out)
{
    const JsonValue* member = nullptr;
    if (Member(field, JsonValue::Type::kString, &member).ok() &&
        !SeedFromJson(*member, out)) {
        Fail(StrFormat("%s must be an unsigned 64-bit decimal, got '%s'", field,
                       member->AsString().c_str()));
    }
    return *this;
}

JsonValue
ScenarioToJson(const ChaosScenario& scenario)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("seed", SeedToJson(scenario.seed));
    JsonValue actions = JsonValue::MakeArray();
    for (const ScenarioAction& action : scenario.actions) {
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("class", FaultClassName(action.cls));
        entry.Set("start_s", action.start_s);
        entry.Set("duration_s", action.duration_s);
        entry.Set("intensity", action.intensity);
        actions.Append(std::move(entry));
    }
    doc.Set("actions", std::move(actions));
    return doc;
}

bool
ScenarioFromJson(const JsonValue& json, ChaosScenario* scenario,
                 std::string* error)
{
    ChaosScenario out;
    const JsonValue* actions = nullptr;
    if (!FieldReader(json, "scenario", error)
             .Seed("seed", &out.seed)
             .Member("actions", JsonValue::Type::kArray, &actions)
             .ok()) {
        return false;
    }
    for (size_t i = 0; i < actions->items().size(); ++i) {
        ScenarioAction action;
        std::string name;
        FieldReader read(actions->items()[i], StrFormat("scenario action %zu", i),
                         error);
        read.String("class", &name);
        if (read.ok() && !FaultClassFromName(name, &action.cls)) {
            read.Fail("has an unknown fault class '" + name + "'");
        }
        read.Number("start_s", 0.0, kMaxFinite, &action.start_s)
            .Number("duration_s", kMinPositive, kMaxFinite, &action.duration_s)
            .Number("intensity", 0.0, 1.0, &action.intensity);
        if (!read.ok()) {
            return false;
        }
        out.actions.push_back(action);
    }
    *scenario = std::move(out);
    return true;
}

JsonValue
CampaignSpecToJson(const CampaignSpec& spec)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("duration_s", spec.duration_s);
    JsonValue weights = JsonValue::MakeArray();
    for (const double w : spec.class_weights) {
        weights.Append(w);
    }
    doc.Set("class_weights", std::move(weights));
    doc.Set("base_intensity", spec.base_intensity);
    doc.Set("intensity_ramp", spec.intensity_ramp);
    doc.Set("bursts_per_minute", spec.bursts_per_minute);
    doc.Set("min_duration_s", spec.min_duration_s);
    doc.Set("max_duration_s", spec.max_duration_s);
    doc.Set("max_actions", spec.max_actions);
    doc.Set("phase_anchor_period_s", spec.phase_anchor_period_s);
    doc.Set("anchor_probability", spec.anchor_probability);
    doc.Set("storm_probability", spec.storm_probability);
    doc.Set("storm_size", spec.storm_size);
    return doc;
}

bool
CampaignSpecFromJson(const JsonValue& json, CampaignSpec* spec,
                     std::string* error)
{
    CampaignSpec out;
    const JsonValue* weights = nullptr;
    FieldReader read(json, "campaign spec", error);
    read.Number("duration_s", kMinPositive, kMaxFinite, &out.duration_s)
        .Member("class_weights", JsonValue::Type::kArray, &weights);
    if (read.ok() &&
        weights->items().size() != static_cast<size_t>(kFaultClassCount)) {
        read.Fail(StrFormat("class_weights must be an array of %d numbers",
                            kFaultClassCount));
    }
    for (size_t i = 0; read.ok() && i < out.class_weights.size(); ++i) {
        const JsonValue& weight = weights->items()[i];
        if (!weight.is_number() || !(weight.AsDouble() >= 0.0) ||
            weight.AsDouble() > kMaxFinite) {
            read.Fail(StrFormat("class_weights[%zu] must be a finite number >= 0",
                                i));
        } else {
            out.class_weights[i] = weight.AsDouble();
        }
    }
    read.Number("base_intensity", 0.0, 1.0, &out.base_intensity)
        .Number("intensity_ramp", -kMaxFinite, kMaxFinite, &out.intensity_ramp)
        .Number("bursts_per_minute", 0.0, kMaxFinite, &out.bursts_per_minute)
        .Number("min_duration_s", kMinPositive, kMaxFinite, &out.min_duration_s);
    read.Number("max_duration_s", out.min_duration_s, kMaxFinite,
                &out.max_duration_s)
        .Integer("max_actions", 1, std::numeric_limits<int>::max(), &out.max_actions)
        .Number("phase_anchor_period_s", 0.0, kMaxFinite,
                &out.phase_anchor_period_s)
        .Number("anchor_probability", 0.0, 1.0, &out.anchor_probability)
        .Number("storm_probability", 0.0, 1.0, &out.storm_probability)
        .Integer("storm_size", 1, std::numeric_limits<int>::max(), &out.storm_size);
    if (!read.ok()) {
        return false;
    }
    *spec = std::move(out);
    return true;
}

}  // namespace aeo::chaos
