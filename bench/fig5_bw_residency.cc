/**
 * @file
 * E6 — Figure 5: histograms of memory-bandwidth residency, controller vs
 * default. The paper's shape: cpubw_hwmon's exponential back-off keeps the
 * bus provisioned higher than necessary for much of the runtime, while the
 * controller selects bandwidth level 1 for over 60 % of the time in all six
 * test cases.
 */
#include <cstdio>

#include "bench_common.h"
#include "common/logging.h"
#include "core/experiment.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E6 / Fig. 5",
                       "Memory-bandwidth residency: controller vs default");

    ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = args.ProfileRuns();
    options.seed = args.SeedOr(2017);

    double controller_bw1_sum = 0.0;
    int apps = 0;
    for (const std::string& app : EvaluationAppNames()) {
        const ExperimentOutcome outcome = harness.RunComparison(app, options);
        bench::PrintResidencyComparison(app, outcome.default_run,
                                        outcome.controller_run,
                                        /*bandwidth=*/true);
        controller_bw1_sum += outcome.controller_run.bw_residency[0] * 100.0;
        ++apps;
        std::fflush(stdout);
    }
    std::printf("controller residency at bandwidth level 1, averaged over %d "
                "apps: %.1f%% (paper: over 60%% in all cases)\n",
                apps, controller_bw1_sum / apps);
    return 0;
}
