/**
 * @file
 * E6 — Figure 5: histograms of memory-bandwidth residency, controller vs
 * default. The paper's shape: cpubw_hwmon's exponential back-off keeps the
 * bus provisioned higher than necessary for much of the runtime, while the
 * controller selects bandwidth level 1 for over 60 % of the time in all six
 * test cases.
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
    bench::PrintHeader("E6 / Fig. 5",
                       "Memory-bandwidth residency: controller vs default");

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

    double controller_bw1_sum = 0.0;
    for (size_t i = 0; i < apps.size(); ++i) {
        const ExperimentOutcome& outcome = outcomes[i];
        bench::PrintResidencyComparison(apps[i], outcome.default_run,
                                        outcome.controller_run,
                                        /*bandwidth=*/true);
        controller_bw1_sum += outcome.controller_run.bw_residency[0] * 100.0;
    }
    std::printf("controller residency at bandwidth level 1, averaged over %zu "
                "apps: %.1f%% (paper: over 60%% in all cases)\n",
                apps.size(), controller_bw1_sum / static_cast<double>(apps.size()));
    return 0;
}
