/**
 * @file
 * E-het / Table VI (our extension beyond the paper's Nexus 6): the
 * coordinated controller on an Exynos 5433-style big.LITTLE platform. The
 * heterogeneous LP optimizes over the (big, LITTLE, bandwidth, placement)
 * cross-product from EnumerateHetConfigs() and is compared, at the
 * interactive governor's delivered QoS, against two per-cluster stock
 * baselines: interactive on both frequency domains and the community
 * lulzactive governor on both.
 *
 * Emits BENCH_table6.json (override with --json=PATH): a deterministic,
 * jobs-invariant snapshot of the per-app outcomes, %.6g-rounded, diffed
 * byte-for-byte in CI (the biglittle-smoke job) against
 * bench/snapshots/BENCH_table6.json at --jobs=1 and --jobs=4. Wall time and
 * event throughput go to the <snapshot>.perf.json sidecar.
 */
#include <cstdio>
#include <string>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "core/het_config_space.h"
#include "power/power_model.h"
#include "sim/event_queue.h"
#include "soc/exynos5433.h"

namespace {

using namespace aeo;

/** A fresh Exynos 5433-style device for one measurement run. */
DeviceFactory
MakeExynos5433Factory()
{
    return [](uint64_t seed) {
        DeviceConfig config;
        config.seed = seed;
        config.topology = MakeExynos5433Topology();
        config.power_params = MakeExynos5433PowerParams();
        return std::make_unique<Device>(config);
    };
}

/** One application's three runs and the derived comparisons. */
struct BigLittleOutcome {
    RunResult interactive_run;
    RunResult lulzactive_run;
    RunResult controller_run;
    size_t profiled_configs = 0;
};

/**
 * The §V procedure transplanted to the heterogeneous platform: baseline
 * runs under both stock governors, profile the candidate grid under
 * the baseline load, then run the controller against the interactive
 * governor's delivered performance. Self-contained per app, so the app grid
 * fans out across the batch layer with bit-identical results at any worker
 * count (profiling inside each job is forced serial — pools never nest).
 */
BigLittleOutcome
RunOneApp(const ExperimentHarness& harness, const std::string& app,
          const std::vector<SystemConfig>& grid, int profile_runs, uint64_t seed)
{
    BigLittleOutcome outcome;
    outcome.profiled_configs = grid.size();
    outcome.interactive_run =
        harness.RunDefault(app, BackgroundKind::kBaseline, seed);
    outcome.lulzactive_run =
        harness.RunDefault(app, BackgroundKind::kBaseline, seed, "lulzactive");

    ProfilerOptions profiler_options;
    profiler_options.configs = grid;
    profiler_options.runs = profile_runs;
    profiler_options.measure_duration = GetAppScenario(app).profile_duration;
    profiler_options.load = BackgroundKind::kBaseline;
    profiler_options.seed = seed + 1000;
    profiler_options.batch.jobs = 1;
    const OfflineProfiler profiler(MakeExynos5433Factory());
    ProfileTable table =
        profiler.Profile(MakeAppSpecByName(app), profiler_options);
    table = table.PruneEpsilonDominated(0.01);
    // §V-A's other exclusion, automated: cut the steep tail of the frontier
    // (big+LITTLE both near fmax) that only destabilizes the controller,
    // but never below the target QoS region.
    table = table.PruneSteepTail(
        3.0, outcome.interactive_run.avg_gips / table.base_speed_gips() * 1.02);

    ExperimentOptions options;
    options.seed = seed;
    // Phase-heterogeneous apps deliver demand bursts worth several cycles
    // of speedup; banking and slewed spending turn them into knee dwells
    // (race-to-idle) instead of being truncated at the regulator clamp.
    options.controller.regulator_surplus_band = 8.0;
    options.controller.regulator_max_step_down = 0.06;
    outcome.controller_run = harness.RunWithController(
        app, table, outcome.interactive_run.avg_gips, options, seed + 2000);
    return outcome;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E-het / Table VI",
                       "Heterogeneous LP on big.LITTLE (Exynos 5433-style)");

    // The candidate space: both clusters' full ladders (every level is on
    // its (f, P) hull, tests/power/power_curve_convexity_test.cc), crossed
    // with the bandwidth grid and every admissible thread placement. --fast
    // keeps the extreme and two interior bandwidths, mirroring the paper's
    // sparse profiling.
    const PowerModel model(MakeExynos5433PowerParams());
    const ClusterTopology topology = MakeExynos5433Topology();
    HetSpaceOptions space;
    if (args.fast) {
        space.bw_levels = {0, 2, 4, kExynos5433BwLevels - 1};
    }
    const std::vector<SystemConfig> grid =
        EnumerateHetConfigs(topology, model, space);
    const size_t full_size = EnumerateHetConfigs(topology, model).size();
    std::printf("Candidate grid: %zu of %zu configurations\n\n", grid.size(),
                full_size);

    const ExperimentHarness harness(MakeExynos5433Factory());
    const std::vector<std::string> apps = EvaluationAppNames();
    const int profile_runs = args.ProfileRuns();
    constexpr uint64_t kSeed = 2017;
    const uint64_t seed = args.SeedOr(kSeed);

    const uint64_t events_before = TotalExecutedEvents();
    const double wall_start = bench::MonotonicSeconds();
    const BatchRunner runner(args.batch);
    const std::vector<BigLittleOutcome> outcomes =
        runner.RunIndexed<BigLittleOutcome>(apps.size(), [&](size_t i) {
            return RunOneApp(harness, apps[i], grid, profile_runs, seed);
        });
    const double wall_seconds = bench::MonotonicSeconds() - wall_start;
    const uint64_t events_executed = TotalExecutedEvents() - events_before;

    TextTable table({"Application", "Perf vs int", "Energy vs int",
                     "Energy vs lulz", "E_int (J)", "E_lulz (J)", "E_ours (J)"});
    for (size_t i = 0; i < apps.size(); ++i) {
        const BigLittleOutcome& outcome = outcomes[i];
        table.AddRow(
            {apps[i],
             StrFormat("%+.1f%%", outcome.controller_run.PerformanceDeltaPercent(
                                      outcome.interactive_run)),
             StrFormat("%.1f%%", outcome.controller_run.EnergySavingsPercent(
                                     outcome.interactive_run)),
             StrFormat("%.1f%%", outcome.controller_run.EnergySavingsPercent(
                                     outcome.lulzactive_run)),
             StrFormat("%.1f", outcome.interactive_run.energy_j),
             StrFormat("%.1f", outcome.lulzactive_run.energy_j),
             StrFormat("%.1f", outcome.controller_run.energy_j)});
    }
    double total_int = 0.0, total_lulz = 0.0, total_ours = 0.0;
    for (const BigLittleOutcome& outcome : outcomes) {
        total_int += outcome.interactive_run.energy_j;
        total_lulz += outcome.lulzactive_run.energy_j;
        total_ours += outcome.controller_run.energy_j;
    }
    table.AddRow({"Total", "",
                  StrFormat("%.1f%%", (1.0 - total_ours / total_int) * 100.0),
                  StrFormat("%.1f%%", (1.0 - total_ours / total_lulz) * 100.0),
                  StrFormat("%.1f", total_int), StrFormat("%.1f", total_lulz),
                  StrFormat("%.1f", total_ours)});
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Positive energy = the heterogeneous LP saves energy against the\n"
                "per-cluster stock governor at the interactive governor's QoS;\n"
                "the LP places threads and sets both DVFS domains per slot.\n\n");

    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("bench", "table6_biglittle");
    doc.Set("root_seed", std::to_string(seed));
    doc.Set("fast", args.fast);
    doc.Set("profile_runs", profile_runs);
    doc.Set("grid_configs", static_cast<int>(grid.size()));
    doc.Set("grid_full", static_cast<int>(full_size));
    JsonValue rows = JsonValue::MakeArray();
    for (size_t i = 0; i < apps.size(); ++i) {
        const BigLittleOutcome& outcome = outcomes[i];
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("app", apps[i]);
        entry.Set("perf_vs_interactive_pct",
                  StrFormat("%.6g", outcome.controller_run.PerformanceDeltaPercent(
                                        outcome.interactive_run)));
        entry.Set("energy_vs_interactive_pct",
                  StrFormat("%.6g", outcome.controller_run.EnergySavingsPercent(
                                        outcome.interactive_run)));
        entry.Set("energy_vs_lulzactive_pct",
                  StrFormat("%.6g", outcome.controller_run.EnergySavingsPercent(
                                        outcome.lulzactive_run)));
        entry.Set("interactive_energy_j",
                  StrFormat("%.6g", outcome.interactive_run.energy_j));
        entry.Set("lulzactive_energy_j",
                  StrFormat("%.6g", outcome.lulzactive_run.energy_j));
        entry.Set("controller_energy_j",
                  StrFormat("%.6g", outcome.controller_run.energy_j));
        entry.Set("interactive_avg_gips",
                  StrFormat("%.6g", outcome.interactive_run.avg_gips));
        entry.Set("controller_avg_gips",
                  StrFormat("%.6g", outcome.controller_run.avg_gips));
        rows.Append(std::move(entry));
    }
    doc.Set("rows", std::move(rows));
    doc.Set("total_energy_vs_interactive_pct",
            StrFormat("%.6g", (1.0 - total_ours / total_int) * 100.0));
    doc.Set("total_energy_vs_lulzactive_pct",
            StrFormat("%.6g", (1.0 - total_ours / total_lulz) * 100.0));
    const std::string json_path = args.JsonPath("BENCH_table6.json");
    bench::WriteSnapshotFile(json_path, doc.Dump(2) + "\n");
    bench::WritePerfMeta(json_path, wall_seconds, events_executed);
    return 0;
}
