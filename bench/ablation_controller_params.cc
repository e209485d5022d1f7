/**
 * @file
 * E11 — controller design-choice ablations the paper motivates but does not
 * table:
 *
 *  - control cycle duration T (§IV-B picks 2 s because perf's 100 ms floor
 *    costs 40 % CPU — shorter cycles buy responsiveness with measurement
 *    overhead);
 *  - the Kalman base-speed estimator on/off (§III-B3);
 *  - the minimum dwell (200 ms, §V-A).
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/experiment.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E11 / controller ablations",
                       "Control cycle, Kalman filter, minimum dwell (AngryBirds)");

    const ExperimentHarness harness;
    const std::string app = "AngryBirds";

    // Every variant is one job of one plan, which measures the shared stock
    // run and profile once. A group of variants ends at a table separator.
    std::vector<std::string> labels;
    std::vector<ComparisonJob> jobs;
    std::vector<size_t> group_ends;
    const auto add = [&](const std::string& label, ControllerConfig config) {
        ExperimentOptions options;
        options.profile_runs = args.ProfileRuns();
        options.seed = args.SeedOr(2017);
        options.controller = config;
        labels.push_back(label);
        jobs.push_back(ComparisonJob{app, options});
    };

    // Control cycle sweep. Shorter cycles pay proportionally more perf-tool
    // overhead (§V-A1: 4 % at 1 s scaling inversely with the period).
    for (const int cycle_ms : {1000, 2000, 4000, 8000}) {
        ControllerConfig config;
        config.control_cycle = SimTime::Millis(cycle_ms);
        add(StrFormat("T = %d ms", cycle_ms), config);
    }
    group_ends.push_back(jobs.size());

    // Kalman estimator ablation.
    {
        ControllerConfig config;
        add("Kalman filter on (paper)", config);
        config.use_kalman = false;
        add("Kalman filter off (b̂ frozen at profile)", config);
    }
    group_ends.push_back(jobs.size());

    // Minimum dwell sweep.
    for (const int dwell_ms : {100, 200, 500, 1000}) {
        ControllerConfig config;
        config.min_dwell = SimTime::Millis(dwell_ms);
        add(StrFormat("min dwell = %d ms", dwell_ms), config);
    }

    const std::vector<ExperimentOutcome> outcomes =
        harness.RunComparisons(jobs, args.batch);
    TextTable table({"Variant", "Perf delta", "Energy savings"});
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (std::find(group_ends.begin(), group_ends.end(), i) !=
            group_ends.end()) {
            table.AddSeparator();
        }
        table.AddRow({labels[i], StrFormat("%+.2f%%", outcomes[i].perf_delta_pct),
                      StrFormat("%.1f%%", outcomes[i].energy_savings_pct)});
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("The paper's operating point (T = 2 s, 200 ms dwell, Kalman on)\n"
                "balances measurement overhead against responsiveness.\n");
    return 0;
}
