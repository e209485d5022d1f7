/**
 * @file
 * E5 — Figure 4: histograms of CPU-frequency residency, our controller vs
 * the default governor, for all six applications. The paper's headline
 * shapes: the default puts 12.7–27.9 % of time at level 10 (the interactive
 * governor's hispeed_freq) and, for several apps, significant time at the
 * top level; the controller concentrates on a few app-specific levels
 * (e.g. AngryBirds on 3 and 5, Spotify on 1 and 3).
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "core/experiment.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E5 / Fig. 4", "CPU-frequency residency: controller vs default");

    const ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = args.ProfileRuns();
    options.seed = args.SeedOr(2017);

    // All six comparisons in one plan; outcomes land in app order.
    const std::vector<std::string> apps = EvaluationAppNames();
    std::vector<ComparisonJob> jobs;
    for (const std::string& app : apps) {
        jobs.push_back(ComparisonJob{app, options});
    }
    const std::vector<ExperimentOutcome> outcomes =
        harness.RunComparisons(jobs, args.batch);

    for (size_t i = 0; i < apps.size(); ++i) {
        const std::string& app = apps[i];
        const ExperimentOutcome& outcome = outcomes[i];
        bench::PrintResidencyComparison(app, outcome.default_run,
                                        outcome.controller_run,
                                        /*bandwidth=*/false);
        const double default_l10 = outcome.default_run.cpu_residency[9] * 100.0;
        std::printf("default residency at hispeed level 10: %.1f%% "
                    "(paper range across apps: 12.7-27.9%%)\n\n",
                    default_l10);
    }
    return 0;
}
