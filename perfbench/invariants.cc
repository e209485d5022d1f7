#include "invariants.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

void
Append(std::string* out, const char* format, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), format, value);
    *out += buffer;
}

void
AppendDoubles(std::string* out, const char* label, const std::vector<double>& values)
{
    *out += label;
    for (const double value : values) {
        Append(out, " %a", value);
    }
    *out += ';';
}

void
CheckResidency(const char* domain, const std::vector<double>& fractions,
               std::vector<std::string>* problems)
{
    if (fractions.empty()) {
        return;  // Domain absent on this topology.
    }
    double sum = 0.0;
    for (const double fraction : fractions) {
        sum += fraction;
    }
    if (!(std::fabs(sum - 1.0) <= kResidencyTolerance)) {
        char buffer[96];
        std::snprintf(buffer, sizeof(buffer), "%s residency sums to %.12g",
                      domain, sum);
        problems->emplace_back(buffer);
    }
}

}  // namespace

std::vector<std::string>
CheckRunResult(const aeo::RunResult& run, const aeo::AppScenario& scenario)
{
    std::vector<std::string> problems;
    CheckResidency("cpu", run.cpu_residency, &problems);
    CheckResidency("bw", run.bw_residency, &problems);
    CheckResidency("gpu", run.gpu_residency, &problems);
    CheckResidency("little", run.little_residency, &problems);
    if (!(run.duration_s > 0.0 && run.executed_gi > 0.0 && run.avg_gips > 0.0 &&
          run.energy_j > 0.0 && run.measured_energy_j > 0.0)) {
        problems.emplace_back("run did no work");
    }
    if (scenario.batch &&
        !(run.app_finished && run.duration_s < scenario.run_duration.seconds())) {
        problems.emplace_back("batch app missed its completion cap");
    }
    return problems;
}

std::string
Fingerprint(const aeo::RunResult& run)
{
    std::string out = run.app_name + '|' + run.load_name + '|' + run.policy_name;
    Append(&out, "|E %a", run.energy_j);
    Append(&out, " Em %a", run.measured_energy_j);
    Append(&out, " P %a", run.avg_power_mw.value());
    Append(&out, " Pm %a", run.measured_avg_power_mw.value());
    Append(&out, " t %a", run.duration_s);
    Append(&out, " g %a", run.avg_gips);
    Append(&out, " gi %a", run.executed_gi);
    Append(&out, " load %a", run.loadavg);
    out += run.app_finished ? " done;" : " open;";
    AppendDoubles(&out, "cpu", run.cpu_residency);
    AppendDoubles(&out, "bw", run.bw_residency);
    AppendDoubles(&out, "gpu", run.gpu_residency);
    AppendDoubles(&out, "little", run.little_residency);
    out += std::to_string(run.cpu_transitions) + ',' +
           std::to_string(run.bw_transitions) + ',' +
           std::to_string(run.little_transitions);
    return out;
}

std::string
Fingerprint(const aeo::ProfileTable& table)
{
    std::string out = table.app_name();
    Append(&out, " base %a;", table.base_speed_gips());
    for (const aeo::ProfileEntry& entry : table.entries()) {
        const aeo::SystemConfig& c = entry.config;
        for (const int axis :
             {c.cpu_level, c.bw_level, c.gpu_level, c.little_level, c.placement}) {
            out += std::to_string(axis) + ',';
        }
        Append(&out, " %a", entry.speedup);
        Append(&out, " %a;", entry.power_mw.value());
    }
    return out;
}

std::string
Fingerprint(const aeo::chaos::CampaignReport& report)
{
    std::string out = std::to_string(report.seed);
    for (const uint64_t count :
         {report.cycles, report.degraded_cycles, report.safe_mode_cycles,
          report.reengage_count, report.fault_events, report.jitter_ticks,
          report.missed_ticks, report.suspend_gap_ticks,
          report.stale_guard_cycles, report.total_violations}) {
        out += ' ' + std::to_string(count);
    }
    out += report.fallback ? " fallback" : " engaged";
    Append(&out, " E %a", report.energy_j);
    Append(&out, " g %a", report.avg_gips);
    out += ' ' + std::to_string(report.first_violation_cycle) + ' ' +
           report.first_violation_monitor;
    for (const aeo::ControlCycleRecord& record : report.cycle_tail) {
        Append(&out, "; %a", record.time_s);
        Append(&out, " %a", record.measured_gips);
        Append(&out, " %a", record.required_speedup);
    }
    return out;
}

}  // namespace perfbench
