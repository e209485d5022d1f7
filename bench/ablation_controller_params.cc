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
#include <cstdio>

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

    TextTable table({"Variant", "Perf delta", "Energy savings"});

    const auto run = [&](const std::string& label, ControllerConfig config) {
        ExperimentOptions options;
        options.profile_runs = args.ProfileRuns();
        options.seed = args.SeedOr(2017);
        options.controller = config;
        const ExperimentOutcome outcome = harness.RunComparison(app, options);
        table.AddRow({label, StrFormat("%+.2f%%", outcome.perf_delta_pct),
                      StrFormat("%.1f%%", outcome.energy_savings_pct)});
        std::fflush(stdout);
    };

    // Control cycle sweep. Shorter cycles pay proportionally more perf-tool
    // overhead (§V-A1: 4 % at 1 s scaling inversely with the period).
    for (const int cycle_ms : {1000, 2000, 4000, 8000}) {
        ControllerConfig config;
        config.control_cycle = SimTime::Millis(cycle_ms);
        run(StrFormat("T = %d ms", cycle_ms), config);
    }
    table.AddSeparator();

    // Kalman estimator ablation.
    {
        ControllerConfig config;
        run("Kalman filter on (paper)", config);
        config.use_kalman = false;
        run("Kalman filter off (b̂ frozen at profile)", config);
    }
    table.AddSeparator();

    // Minimum dwell sweep.
    for (const int dwell_ms : {100, 200, 500, 1000}) {
        ControllerConfig config;
        config.min_dwell = SimTime::Millis(dwell_ms);
        run(StrFormat("min dwell = %d ms", dwell_ms), config);
    }

    std::printf("%s\n", table.ToString().c_str());
    std::printf("The paper's operating point (T = 2 s, 200 ms dwell, Kalman on)\n"
                "balances measurement overhead against responsiveness.\n");
    return 0;
}
