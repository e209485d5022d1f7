#include "chaos/crash_bundle.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "chaos/scenario.h"
#include "common/strings.h"

namespace aeo::chaos {

namespace {

/**
 * Parses the verdict summary back out of a bundle. The cycle tail is kept
 * for humans and is not re-materialized: a replay recomputes its own tail
 * and compares verdicts, not history.
 */
CampaignReport
ReportFromJson(const JsonValue& json)
{
    CampaignReport report;
    report.seed =
        json.Has("seed") ? SeedFromJson(json.At("seed")) : 0;
    report.cycles = static_cast<uint64_t>(json.GetDouble("cycles", 0.0));
    report.fallback = json.GetBool("fallback", false);
    report.degraded_cycles =
        static_cast<uint64_t>(json.GetDouble("degraded_cycles", 0.0));
    report.safe_mode_cycles =
        static_cast<uint64_t>(json.GetDouble("safe_mode_cycles", 0.0));
    report.reengage_count =
        static_cast<uint64_t>(json.GetDouble("reengage_count", 0.0));
    report.fault_events =
        static_cast<uint64_t>(json.GetDouble("fault_events", 0.0));
    report.energy_j = json.GetDouble("energy_j", 0.0);
    report.avg_gips = json.GetDouble("avg_gips", 0.0);
    report.total_violations =
        static_cast<uint64_t>(json.GetDouble("total_violations", 0.0));
    report.first_violation_cycle =
        static_cast<int64_t>(json.GetDouble("first_violation_cycle", -1.0));
    report.first_violation_monitor =
        json.GetString("first_violation_monitor", "");
    if (json.Has("verdicts") && json.At("verdicts").is_array()) {
        for (const JsonValue& entry : json.At("verdicts").items()) {
            MonitorVerdict verdict;
            verdict.monitor = entry.GetString("monitor", "");
            verdict.violations =
                static_cast<uint64_t>(entry.GetDouble("violations", 0.0));
            verdict.first_violation_cycle = static_cast<int64_t>(
                entry.GetDouble("first_violation_cycle", -1.0));
            verdict.first_violation_time_s =
                entry.GetDouble("first_violation_time_s", 0.0);
            verdict.first_message = entry.GetString("first_message", "");
            report.verdicts.push_back(std::move(verdict));
        }
    }
    return report;
}

/**
 * Reads the required count @p field into @p out. A missing, non-numeric,
 * non-integral or out-of-range value (below 1 or above INT_MAX) sets
 * @p error, naming the field, and returns false: the replay must refuse
 * the bundle rather than run a profiler or controller with it.
 */
bool
ReadCount(const JsonValue& doc, const char* field, int* out, std::string* error)
{
    if (!doc.Has(field) || !doc.At(field).is_number()) {
        *error = StrFormat("bundle has no numeric %s", field);
        return false;
    }
    const double value = doc.At(field).AsDouble();
    if (!(value >= 1.0 && value <= std::numeric_limits<int>::max()) ||
        value != std::floor(value)) {
        *error = StrFormat("bundle %s must be an integer in [1, %d], got %.15g",
                           field, std::numeric_limits<int>::max(), value);
        return false;
    }
    *out = static_cast<int>(value);
    return true;
}

}  // namespace

JsonValue
CrashBundleToJson(const CrashBundle& bundle)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("version", bundle.version);
    doc.Set("app", bundle.app);
    doc.Set("target_gips", bundle.target_gips);
    doc.Set("profile_seed", SeedToJson(bundle.profile_seed));
    doc.Set("profile_runs", bundle.profile_runs);
    doc.Set("device_seed", SeedToJson(bundle.device_seed));
    doc.Set("enable_thermal", bundle.enable_thermal);
    doc.Set("readback_verification", bundle.readback_verification);
    doc.Set("cap_confirm_cycles", bundle.cap_confirm_cycles);
    doc.Set("reengage", bundle.reengage);
    doc.Set("spec", CampaignSpecToJson(bundle.spec));
    doc.Set("scenario", ScenarioToJson(bundle.scenario));
    doc.Set("report", CampaignReportToJson(bundle.report));
    return doc;
}

CrashBundleReadResult
ParseCrashBundle(const std::string& text)
{
    CrashBundleReadResult result;
    const JsonParseResult parsed = ParseJson(text);
    if (!parsed.ok) {
        result.error = "bundle JSON: " + parsed.error;
        return result;
    }
    const JsonValue& doc = parsed.value;
    if (!doc.is_object()) {
        result.error = "bundle root is not an object";
        return result;
    }
    const int version =
        static_cast<int>(doc.GetDouble("version", 0.0));
    if (version != kCrashBundleVersion) {
        result.error = StrFormat("unsupported bundle version %d (want %d)",
                                 version, kCrashBundleVersion);
        return result;
    }
    CrashBundle& bundle = result.bundle;
    bundle.version = version;
    bundle.app = doc.GetString("app", "");
    if (bundle.app.empty()) {
        result.error = "bundle has no app";
        return result;
    }
    bundle.target_gips = doc.GetDouble("target_gips", 0.0);
    if (bundle.target_gips <= 0.0) {
        result.error = "bundle target_gips must be positive";
        return result;
    }
    bundle.profile_seed =
        doc.Has("profile_seed") ? SeedFromJson(doc.At("profile_seed")) : 0;
    if (!ReadCount(doc, "profile_runs", &bundle.profile_runs, &result.error)) {
        return result;
    }
    bundle.device_seed =
        doc.Has("device_seed") ? SeedFromJson(doc.At("device_seed")) : 0;
    if (bundle.device_seed == 0) {
        result.error = "bundle device_seed must be non-zero";
        return result;
    }
    bundle.enable_thermal = doc.GetBool("enable_thermal", true);
    bundle.readback_verification =
        doc.GetBool("readback_verification", true);
    if (!ReadCount(doc, "cap_confirm_cycles", &bundle.cap_confirm_cycles,
                   &result.error)) {
        return result;
    }
    bundle.reengage = doc.GetBool("reengage", true);
    std::string error;
    if (!doc.Has("spec") ||
        !CampaignSpecFromJson(doc.At("spec"), &bundle.spec, &error)) {
        result.error = "bundle spec: " + (error.empty() ? "missing" : error);
        return result;
    }
    if (!doc.Has("scenario") ||
        !ScenarioFromJson(doc.At("scenario"), &bundle.scenario, &error)) {
        result.error =
            "bundle scenario: " + (error.empty() ? "missing" : error);
        return result;
    }
    if (doc.Has("report")) {
        bundle.report = ReportFromJson(doc.At("report"));
    }
    result.ok = true;
    return result;
}

bool
WriteCrashBundle(const std::string& path, const CrashBundle& bundle)
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << CrashBundleToJson(bundle).Dump(2) << "\n";
    return static_cast<bool>(out);
}

CrashBundleReadResult
ReadCrashBundle(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        CrashBundleReadResult result;
        result.error = "cannot open " + path;
        return result;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return ParseCrashBundle(text.str());
}

}  // namespace aeo::chaos
