#include "chaos/scenario_generator.h"

#include <algorithm>
#include <cmath>

#include "chaos/chaos_rng.h"
#include "common/logging.h"

namespace aeo::chaos {

namespace {

double
Clamp01(double value)
{
    return std::min(1.0, std::max(0.0, value));
}

}  // namespace

ChaosScenario
GenerateScenario(const CampaignSpec& spec, uint64_t seed)
{
    AEO_ASSERT(spec.class_weights.size() ==
                   static_cast<size_t>(kFaultClassCount),
               "campaign spec needs one weight per fault class");
    ChaosRng rng(seed);
    ChaosScenario scenario;
    scenario.seed = seed;

    const double rate_per_s = spec.bursts_per_minute / 60.0;
    if (rate_per_s <= 0.0) {
        return scenario;
    }
    const double mean_gap_s = 1.0 / rate_per_s;

    double t = 0.0;
    while (static_cast<int>(scenario.actions.size()) < spec.max_actions) {
        // Burst arrival: jittered gaps with the configured mean. A textbook
        // exponential would call log(), whose last-ulp behaviour varies
        // across libms; bounded uniform jitter keeps the arithmetic exact
        // (mul/div only) so scenarios are bit-identical everywhere.
        t += (0.25 + 1.5 * rng.NextDouble()) * mean_gap_s;
        if (t >= spec.duration_s) {
            break;
        }

        double start = t;
        if (spec.phase_anchor_period_s > 0.0 &&
            rng.Bernoulli(spec.anchor_probability)) {
            // Snap to the nearest phase boundary: faults on real devices
            // arrive coupled to workload transitions, not uniformly.
            start = std::round(start / spec.phase_anchor_period_s) *
                    spec.phase_anchor_period_s;
            start = std::min(std::max(start, 0.0),
                             spec.duration_s - spec.min_duration_s);
        }

        const int count = rng.Bernoulli(spec.storm_probability)
                              ? spec.storm_size
                              : 1;
        for (int i = 0; i < count &&
                        static_cast<int>(scenario.actions.size()) <
                            spec.max_actions;
             ++i) {
            ScenarioAction action;
            action.cls = static_cast<FaultClass>(
                rng.WeightedIndex(spec.class_weights));
            // Storm members stagger slightly so their windows overlap but
            // their injector installs interleave.
            action.start_s =
                i == 0 ? start : start + rng.Uniform(0.0, 1.0);
            const double span = spec.duration_s - action.start_s;
            action.duration_s = std::min(
                rng.Uniform(spec.min_duration_s, spec.max_duration_s), span);
            if (action.duration_s <= 0.0) {
                continue;
            }
            const double ramp =
                spec.intensity_ramp * (action.start_s / spec.duration_s);
            action.intensity = Clamp01(spec.base_intensity + ramp +
                                       rng.Uniform(-0.05, 0.05));
            scenario.actions.push_back(action);
        }
    }

    std::stable_sort(scenario.actions.begin(), scenario.actions.end(),
                     [](const ScenarioAction& a, const ScenarioAction& b) {
                         return a.start_s < b.start_s;
                     });
    return scenario;
}

}  // namespace aeo::chaos
