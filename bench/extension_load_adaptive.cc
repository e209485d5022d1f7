/**
 * @file
 * E13 — the §V-C extension: load-adaptive profile selection.
 *
 * The paper observes that profiling data collected under one background
 * load can misrepresent another (their MobileBench NL row goes negative
 * with BL data, and recovers to +11.1 % after re-profiling under NL). This
 * harness profiles MobileBench under all three loads, then evaluates the
 * controller in each runtime condition two ways:
 *
 *  1. the paper's configuration — always the baseline-load (BL) table;
 *  2. the proposed extension — the table whose free-memory signature is
 *     nearest to the runtime environment's.
 */
#include <cstdio>

#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "core/load_adaptive.h"

namespace {

using namespace aeo;

}  // namespace

int
main(int argc, char** argv)
{
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E13 / §V-C extension",
                       "Load-adaptive profile selection (MobileBench)");

    const ExperimentHarness harness;
    const std::string app = "MobileBench";
    const BackgroundKind kinds[] = {BackgroundKind::kBaseline,
                                    BackgroundKind::kNoLoad,
                                    BackgroundKind::kHeavy};

    // Profile once under each load, recording the free-memory signature and
    // the per-load default performance (the correct target for that load).
    std::vector<LoadConditionProfile> conditions;
    for (const BackgroundKind kind : kinds) {
        ExperimentOptions options;
        options.profile_runs = args.ProfileRuns();
        options.profile_load = kind;
        options.seed = args.SeedOr(2017);
        ProfileTable table = harness.ProfileApp(app, options);
        const RunResult default_run = harness.RunDefault(app, kind, options.seed);
        conditions.push_back(LoadConditionProfile{
            MakeBackgroundEnv(kind).free_memory_mb, std::move(table),
            default_run.avg_gips});
    }
    const LoadAdaptiveProfile adaptive(std::move(conditions));

    TextTable table({"run load", "energy (BL table)", "energy (adaptive)",
                     "perf (BL table)", "perf (adaptive)"});
    for (const BackgroundKind kind : kinds) {
        ExperimentOptions options;
        options.profile_runs = args.ProfileRuns();
        options.run_load = kind;
        options.seed = args.SeedOr(2017);

        // Paper configuration: BL data regardless of the runtime load.
        options.profile_load = BackgroundKind::kBaseline;
        const ExperimentOutcome paper_cfg = harness.RunComparison(app, options);

        // Extension: select by the runtime environment's free memory.
        const double runtime_free = MakeBackgroundEnv(kind).free_memory_mb;
        const LoadConditionProfile& selected = adaptive.SelectFor(runtime_free);
        const RunResult default_run = harness.RunDefault(app, kind, options.seed);
        const RunResult adaptive_run = harness.RunWithController(
            app, selected.table, selected.default_gips, options,
            options.seed + 9000);

        table.AddRow({ToString(kind),
                      StrFormat("%.1f%%", paper_cfg.energy_savings_pct),
                      StrFormat("%.1f%%",
                                adaptive_run.EnergySavingsPercent(default_run)),
                      StrFormat("%+.1f%%", paper_cfg.perf_delta_pct),
                      StrFormat("%+.1f%%",
                                adaptive_run.PerformanceDeltaPercent(default_run))});
        std::fflush(stdout);
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Selecting the profile by the runtime free-memory signature\n"
                "(1 GB / 500 MB / 134 MB for NL / BL / HL) recovers accuracy the\n"
                "fixed BL table loses under mismatched loads — the paper's\n"
                "re-profiling observation, automated.\n");
    return 0;
}
