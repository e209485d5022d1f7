#include "chaos/crash_bundle.h"

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
bool
ReportFromJson(const JsonValue& json, CampaignReport* report, std::string* error)
{
    // Counts travel as JSON numbers, exact up to 2^53.
    constexpr int64_t kMaxCount = int64_t{1} << 53;
    CampaignReport out;
    const JsonValue* verdicts = nullptr;
    const JsonValue* tail = nullptr;
    FieldReader read(json, "report", error);
    read.Seed("seed", &out.seed)
        .Integer<uint64_t>("cycles", 0, kMaxCount, &out.cycles)
        .Bool("fallback", &out.fallback)
        .Integer<uint64_t>("degraded_cycles", 0, kMaxCount, &out.degraded_cycles)
        .Integer<uint64_t>("safe_mode_cycles", 0, kMaxCount, &out.safe_mode_cycles)
        .Integer<uint64_t>("reengage_count", 0, kMaxCount, &out.reengage_count)
        .Integer<uint64_t>("fault_events", 0, kMaxCount, &out.fault_events)
        .Number("energy_j", 0.0, kMaxFinite, &out.energy_j)
        .Number("avg_gips", 0.0, kMaxFinite, &out.avg_gips)
        .Integer<uint64_t>("jitter_ticks", 0, kMaxCount, &out.jitter_ticks)
        .Integer<uint64_t>("missed_ticks", 0, kMaxCount, &out.missed_ticks)
        .Integer<uint64_t>("suspend_gap_ticks", 0, kMaxCount, &out.suspend_gap_ticks)
        .Integer<uint64_t>("stale_guard_cycles", 0, kMaxCount,
                           &out.stale_guard_cycles)
        .Member("verdicts", JsonValue::Type::kArray, &verdicts)
        .Integer<uint64_t>("total_violations", 0, kMaxCount, &out.total_violations)
        .Integer<int64_t>("first_violation_cycle", -1, kMaxCount,
                          &out.first_violation_cycle)
        .String("first_violation_monitor", &out.first_violation_monitor)
        .Member("cycle_tail", JsonValue::Type::kArray, &tail);
    for (size_t i = 0; read.ok() && i < verdicts->items().size(); ++i) {
        MonitorVerdict verdict;
        if (!FieldReader(verdicts->items()[i], StrFormat("report verdict %zu", i),
                         error)
                 .String("monitor", &verdict.monitor)
                 .Integer<uint64_t>("violations", 0, kMaxCount, &verdict.violations)
                 .Integer<int64_t>("first_violation_cycle", -1, kMaxCount,
                                   &verdict.first_violation_cycle)
                 .Number("first_violation_time_s", 0.0, kMaxFinite,
                         &verdict.first_violation_time_s)
                 .String("first_message", &verdict.first_message)
                 .ok()) {
            return false;
        }
        out.verdicts.push_back(std::move(verdict));
    }
    if (!read.ok()) {
        return false;
    }
    *report = std::move(out);
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
    CrashBundle& bundle = result.bundle;
    const JsonValue* spec = nullptr;
    const JsonValue* scenario = nullptr;
    const JsonValue* report = nullptr;
    // Every count a replay feeds the profiler and the controller is an
    // integer in [1, INT_MAX]: never a default, a truncation or an undefined
    // conversion.
    constexpr int kMaxCount = std::numeric_limits<int>::max();
    FieldReader read(parsed.value, "bundle", &result.error);
    read.Integer("version", kCrashBundleVersion, kCrashBundleVersion,
                 &bundle.version)
        .String("app", &bundle.app);
    if (read.ok() && bundle.app.empty()) {
        read.Fail("app must not be empty");
    }
    read.Number("target_gips", kMinPositive, kMaxFinite, &bundle.target_gips)
        .Seed("profile_seed", &bundle.profile_seed)
        .Integer("profile_runs", 1, kMaxCount, &bundle.profile_runs)
        .Seed("device_seed", &bundle.device_seed);
    if (read.ok() && bundle.device_seed == 0) {
        read.Fail("device_seed must be non-zero");
    }
    read.Bool("enable_thermal", &bundle.enable_thermal)
        .Bool("readback_verification", &bundle.readback_verification)
        .Integer("cap_confirm_cycles", 1, kMaxCount, &bundle.cap_confirm_cycles)
        .Bool("reengage", &bundle.reengage)
        .Member("spec", JsonValue::Type::kObject, &spec)
        .Member("scenario", JsonValue::Type::kObject, &scenario)
        .Member("report", JsonValue::Type::kObject, &report);
    if (!read.ok()) {
        return result;
    }
    std::string error;
    if (!CampaignSpecFromJson(*spec, &bundle.spec, &error) ||
        !ScenarioFromJson(*scenario, &bundle.scenario, &error) ||
        !ReportFromJson(*report, &bundle.report, &error)) {
        result.error = "bundle " + error;
        return result;
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
