/**
 * @file
 * Example: what the controller's savings mean in battery life — the
 * end-user metric the paper motivates with ("battery life is one of the top
 * concerns of end users", §I).
 *
 * Runs Spotify under the default governors and under the controller, then
 * projects both average powers onto the Nexus 6 battery (3220 mAh, 3.8 V).
 */
#include <cstdio>

#include "common/logging.h"
#include "core/experiment.h"

using namespace aeo;

namespace {

/** Full-battery time at a constant draw of @p power on the stock Nexus 6
 * pack: 3220 mAh × 3.6 C/mAh × 3.8 V of energy, to the nearest µs. */
SimTime
TimeToEmpty(Milliwatts power)
{
    return SimTime::FromSecondsF(3220.0 * 3.6 * 3.8 / power.watts());
}

}  // namespace

int
main()
{
    SetLogLevel(LogLevel::kWarn);
    std::printf("Battery-life projection: Spotify playback on the Nexus 6\n\n");

    ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = 3;
    options.seed = 5;
    const ExperimentOutcome outcome = harness.RunComparison("Spotify", options);

    std::printf("default:    %s\n", outcome.default_run.Summary().c_str());
    std::printf("controller: %s\n\n", outcome.controller_run.Summary().c_str());

    const SimTime default_life =
        TimeToEmpty(outcome.default_run.measured_avg_power_mw);
    const SimTime controlled_life =
        TimeToEmpty(outcome.controller_run.measured_avg_power_mw);

    std::printf("full-battery playback time, default governors: %.1f h\n",
                default_life.seconds() / 3600.0);
    std::printf("full-battery playback time, controller:        %.1f h\n",
                controlled_life.seconds() / 3600.0);
    std::printf("extra listening time: %+.1f h (%+.1f%% energy)\n",
                (controlled_life - default_life).seconds() / 3600.0,
                outcome.energy_savings_pct);
    return 0;
}
