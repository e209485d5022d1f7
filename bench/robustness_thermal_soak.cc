/**
 * @file
 * R2 — Thermal soak: a sustained-load run on a fast-heating package with the
 * msm_thermal adversary staging the CPU frequency ceiling down, comparing a
 * *clamp-aware* controller (read-back verification + feasible-set masking +
 * drift correction) against a *clamp-oblivious* one that trusts every write
 * (the pre-hardening loop).
 *
 * The oblivious controller keeps scheduling configurations the throttled
 * device cannot reach, so its delivered performance sags while its LP still
 * believes the plan; the aware controller re-solves over the reachable
 * subset and holds the target whenever the cap permits (safe-mode envelope
 * otherwise).
 *
 * Emits robustness_thermal_soak.csv: one row per control cycle with zone
 * temperature, clamp stage, requested (target) vs delivered GIPS and
 * accumulated energy for both controllers.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/batch_runner.h"
#include "core/offline_profiler.h"
#include "core/online_controller.h"
#include "core/scenarios.h"
#include "device/device.h"
#include "platform/sim_platform.h"
#include "sim/event_queue.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

constexpr const char kApp[] = "AngryBirds";
constexpr uint64_t kDefaultSeed = 2017;

/** Fast-heating package so the soak spans several clamp stages. */
ThermalParams
SoakPackage()
{
    ThermalParams params;
    params.resistance_c_per_w = 12.0;
    params.capacitance_j_per_c = 1.5;  // RC = 18 s
    return params;
}

MsmThermalParams
SoakThrottling()
{
    MsmThermalParams params;
    params.trigger_temp_c = 32.0;
    params.levels_per_step = 2;
    // AngryBirds profiles CPU levels {0, 2, 4}; a floor of 0 lets the staged
    // cap descend through every profiled row, so a full clamp leaves only
    // the base-level rows reachable and the LP plan actually loses configs.
    params.min_cap_level = 0;
    return params;
}

struct SoakRun {
    RunResult result;
    std::vector<ControlCycleRecord> history;
    platform::ActuationStats stats;
    uint64_t safe_mode_cycles = 0;
    int max_stage = 0;
    uint64_t clamp_events = 0;
    bool fallback = false;
};

SoakRun
RunSoak(const ProfileTable& table, double target_gips, SimTime duration,
        bool clamp_aware, uint64_t seed)
{
    DeviceConfig device_config;
    device_config.seed = seed;
    // Heat feeds back into leakage, so the profiled power surface drifts as
    // the package warms — the aware controller's drift detector tracks it.
    device_config.power_params.leak_temp_coeff_per_c = 0.04;
    Device device(device_config);
    device.LaunchApp(MakeAppSpecByName(kApp));
    device.EnableThermal(SoakPackage(), SoakThrottling());

    ControllerConfig config;
    config.target_gips = target_gips;
    config.readback_verification = clamp_aware;
    config.drift.enabled = clamp_aware;
    platform::SimPlatform plat(&device);
    OnlineController controller(&plat, table, config);
    controller.Start();
    device.RunFor(duration);
    controller.Stop();

    SoakRun run;
    run.result = device.CollectResult(clamp_aware ? "clamp-aware"
                                                  : "clamp-oblivious");
    run.history = controller.history();
    run.stats = controller.actuator().stats();
    run.safe_mode_cycles = controller.safe_mode_cycle_count();
    run.max_stage = device.msm_thermal()->max_stage_reached();
    run.clamp_events = device.msm_thermal()->clamp_event_count();
    run.fallback = controller.fallback_engaged();
    return run;
}

/** Clamp stage the cycle planned under, from its recorded cap level. */
int
StageOf(const ControlCycleRecord& record, int max_level)
{
    if (record.cpu_cap_level < 0) {
        return 0;
    }
    const MsmThermalParams params = SoakThrottling();
    const int shed = max_level - record.cpu_cap_level;
    return (shed + params.levels_per_step - 1) / params.levels_per_step;
}

/**
 * The snapshot holds the structural outcome of both soaks — exact integer
 * counters plus %.6g-rounded energy/performance. CI regenerates it at
 * --jobs=1 and --jobs=4 and diffs byte-for-byte against the committed copy.
 */
JsonValue
SnapshotJson(const bench::BenchArgs& args, uint64_t seed, bool fast,
             double target, const SoakRun& aware, const SoakRun& oblivious)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "robustness_thermal_soak");
    doc.Set("app", kApp);
    doc.Set("root_seed", StrFormat("%llu",
                                   static_cast<unsigned long long>(seed)));
    doc.Set("fast", fast);
    doc.Set("profile_runs", args.ProfileRuns());
    doc.Set("target_gips", StrFormat("%.6g", target));
    auto soak_json = [](const SoakRun& run) {
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("cycles", run.history.size());
        entry.Set("energy_j", StrFormat("%.6g", run.result.energy_j));
        entry.Set("avg_gips", StrFormat("%.6g", run.result.avg_gips));
        entry.Set("silent_clamps", run.stats.silent_clamps);
        entry.Set("readback_failures", run.stats.readback_failures);
        entry.Set("safe_mode_cycles", run.safe_mode_cycles);
        entry.Set("max_stage", run.max_stage);
        entry.Set("clamp_events", run.clamp_events);
        entry.Set("fallback", run.fallback);
        return entry;
    };
    doc.Set("clamp_aware", soak_json(aware));
    doc.Set("clamp_oblivious", soak_json(oblivious));
    return doc;
}

}  // namespace
}  // namespace aeo

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kQuiet);
    std::string out;  // --out=PATH: the CSV artifact's path
    const bench::BenchArgs args =
        bench::ParseBenchArgs(argc, argv, {{"--out", &out}});
    const bool fast = args.fast;
    const uint64_t seed = args.SeedOr(kDefaultSeed);
    const std::string json_path = args.JsonPath("BENCH_thermal_soak.json");
    bench::PrintHeader("R2 / thermal soak",
                       "Sustained load under msm_thermal staging: clamp-aware "
                       "vs clamp-oblivious control");

    const AppScenario scenario = GetAppScenario(kApp);
    ProfilerOptions profiler_options;
    profiler_options.runs = args.ProfileRuns();
    profiler_options.cpu_levels = scenario.profile_cpu_levels;
    profiler_options.measure_duration = scenario.profile_duration;
    profiler_options.seed = seed + 1000;
    profiler_options.batch = args.batch;
    // Wall time covers everything the bench simulates: the profile and
    // the fan-out.
    const uint64_t events_before = TotalExecutedEvents();
    const double wall_start = bench::MonotonicSeconds();
    const ProfileTable table =
        OfflineProfiler().Profile(MakeAppSpecByName(kApp), profiler_options);
    const double target = 0.20;  // between AngryBirds' base and saturation
    const SimTime duration =
        fast ? SimTime::FromSeconds(60) : SimTime::FromSeconds(180);

    // The two soaks are independent seeded runs — one batch job each, the
    // read-back-verifying controller first.
    std::vector<SoakRun> soaks =
        BatchRunner(args.batch).RunIndexed<SoakRun>(2, [&](size_t i) {
            return RunSoak(table, target, duration, i == 0, seed);
        });
    const double wall_seconds = bench::MonotonicSeconds() - wall_start;
    const uint64_t events_executed = TotalExecutedEvents() - events_before;
    const SoakRun aware = std::move(soaks[0]);
    const SoakRun oblivious = std::move(soaks[1]);

    // --- Per-cycle trace --------------------------------------------------
    const int max_level = MakeNexus6FrequencyTable().max_level();
    CsvWriter csv({"time_s", "temp_c", "cap_level", "clamp_stage",
                   "target_gips", "aware_gips", "aware_power_mw",
                   "aware_safe_mode", "oblivious_gips", "oblivious_power_mw"});
    const size_t cycles =
        std::min(aware.history.size(), oblivious.history.size());
    for (size_t i = 0; i < cycles; ++i) {
        const ControlCycleRecord& a = aware.history[i];
        const ControlCycleRecord& o = oblivious.history[i];
        csv.AddRow({StrFormat("%.1f", a.time_s), StrFormat("%.2f", a.temp_c),
                    StrFormat("%d", a.cpu_cap_level),
                    StrFormat("%d", StageOf(a, max_level)),
                    StrFormat("%.6g", target), StrFormat("%.6g", a.measured_gips),
                    StrFormat("%.6g", a.measured_power_mw.value()),
                    a.safe_mode ? "1" : "0", StrFormat("%.6g", o.measured_gips),
                    StrFormat("%.6g", o.measured_power_mw.value())});
    }

    // --- Summary ----------------------------------------------------------
    auto violation_pct = [&](const SoakRun& run) {
        return std::max(0.0, target - run.result.avg_gips) / target * 100.0;
    };
    TextTable text({"Controller", "Energy (J)", "Avg GIPS", "Violation",
                    "Silent clamps", "Safe-mode cycles", "Max stage",
                    "Fallback"});
    auto add_row = [&](const char* name, const SoakRun& run) {
        text.AddRow({name, StrFormat("%.1f", run.result.energy_j),
                     StrFormat("%.4f", run.result.avg_gips),
                     StrFormat("%.2f%%", violation_pct(run)),
                     StrFormat("%llu",
                               static_cast<unsigned long long>(
                                   run.stats.silent_clamps)),
                     StrFormat("%llu", static_cast<unsigned long long>(
                                           run.safe_mode_cycles)),
                     StrFormat("%d", run.max_stage),
                     run.fallback ? "YES" : "no"});
    };
    add_row("clamp-aware", aware);
    add_row("clamp-oblivious", oblivious);
    std::printf("%s\n", text.ToString().c_str());
    bench::WriteSnapshotFile(out.empty() ? "robustness_thermal_soak.csv" : out,
                             csv.ToString());

    bench::WriteSnapshotFile(
        json_path,
        SnapshotJson(args, seed, fast, target, aware, oblivious).Dump(2) + "\n");
    bench::WritePerfMeta(json_path, wall_seconds, events_executed);
    std::printf("\n");

    std::printf(
        "Adversary: %llu clamp polls, deepest stage %d (cap floor level %d).\n"
        "Aware violation %.2f%% vs oblivious %.2f%%; energy %+.2f%% "
        "relative to oblivious.\n",
        static_cast<unsigned long long>(aware.clamp_events), aware.max_stage,
        SoakThrottling().min_cap_level, violation_pct(aware),
        violation_pct(oblivious),
        oblivious.result.energy_j > 0.0
            ? (aware.result.energy_j / oblivious.result.energy_j - 1.0) * 100.0
            : 0.0);
    return 0;
}
