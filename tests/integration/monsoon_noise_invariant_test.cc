/**
 * @file
 * Physical invariant of the Monsoon model's noise, independent of snapshot
 * bytes: measurement noise changes the measurement and nothing else.
 *
 * Every evaluation app runs briefly under the stock governors on both
 * topologies, twice from one seed: at the default noise level and with the
 * noise off. The stock governors never read the meter, so the plant's
 * trajectory (exact energy, duration, retired instructions, residencies) and
 * the sample count must be bit-identical between the two runs. The measured
 * energy may move only by the noise: the monitor's sum of n samples carries
 * relative noise σ·sqrt(Σ P²)/Σ P, which is σ/sqrt(n) at constant power, and
 * the check allows six of those.
 *
 * Each run's residencies are also checked against the plant's shape: one
 * entry per level of every frequency domain, summing to 1, and no LITTLE
 * residency on the single-cluster Nexus 6.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "apps/app_registry.h"
#include "apps/background_load.h"
#include "core/scenarios.h"
#include "device/device.h"
#include "power/power_model.h"
#include "soc/exynos5433.h"

namespace aeo {
namespace {

constexpr double kRunSeconds = 10.0;

struct NoiseRun {
    RunResult result;
    uint64_t samples = 0;
    /** Level count of each domain: the clusters, the bus, the GPU. */
    std::vector<int> num_levels;
};

NoiseRun
RunStock(const std::string& app, bool big_little, double noise)
{
    // Each case gets a seed, and so a noise stream, of its own, which keeps
    // the twelve measured-energy checks independent.
    const std::vector<std::string> apps = EvaluationAppNames();
    const auto index = std::find(apps.begin(), apps.end(), app) - apps.begin();
    DeviceConfig config;
    config.seed = 100 + 2 * static_cast<uint64_t>(index) + (big_little ? 1 : 0);
    if (big_little) {
        config.topology = MakeExynos5433Topology();
        config.power_params = MakeExynos5433PowerParams();
    }
    config.monsoon.noise_rel_stddev = noise;
    Device device(config);
    device.SetBackground(MakeBackgroundEnv(BackgroundKind::kBaseline));
    device.UseDefaultGovernors();
    device.LaunchApp(MakeAppSpecByName(app));
    device.RunFor(SimTime::FromSecondsF(kRunSeconds));
    NoiseRun run;
    run.result = device.CollectResult("default");
    run.samples = device.monitor().sample_count();
    for (size_t i = 0; i < device.num_clusters(); ++i) {
        run.num_levels.push_back(device.cluster(i).num_levels());
    }
    run.num_levels.push_back(device.bus().num_levels());
    run.num_levels.push_back(device.gpu().num_levels());
    return run;
}

/** Every residency vector has one entry per level of its domain and sums
 * to 1; a single-cluster device has no LITTLE residency. */
void
ExpectResidenciesSumToOne(const NoiseRun& run)
{
    const RunResult& result = run.result;
    std::vector<const std::vector<double>*> residencies = {&result.cpu_residency};
    if (run.num_levels.size() > 3) {
        residencies.push_back(&result.little_residency);
    } else {
        EXPECT_TRUE(result.little_residency.empty());
    }
    residencies.push_back(&result.bw_residency);
    residencies.push_back(&result.gpu_residency);
    ASSERT_EQ(residencies.size(), run.num_levels.size());
    for (size_t i = 0; i < residencies.size(); ++i) {
        EXPECT_EQ(residencies[i]->size(), static_cast<size_t>(run.num_levels[i]))
            << "domain " << i;
        double sum = 0.0;
        for (const double fraction : *residencies[i]) {
            sum += fraction;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << "domain " << i;
    }
}

class MonsoonNoiseInvariantTest
    : public ::testing::TestWithParam<std::tuple<bool, std::string>> {};

TEST_P(MonsoonNoiseInvariantTest, NoiseMovesOnlyTheMeasurement)
{
    const auto& [big_little, app] = GetParam();
    const double sigma = MonsoonConfig{}.noise_rel_stddev;
    ASSERT_GT(sigma, 0.0);
    const NoiseRun noisy = RunStock(app, big_little, sigma);
    const NoiseRun quiet = RunStock(app, big_little, 0.0);

    EXPECT_EQ(noisy.result.energy_j, quiet.result.energy_j);
    EXPECT_EQ(noisy.result.duration_s, quiet.result.duration_s);
    EXPECT_EQ(noisy.result.executed_gi, quiet.result.executed_gi);
    EXPECT_EQ(noisy.result.cpu_residency, quiet.result.cpu_residency);
    EXPECT_EQ(noisy.result.little_residency, quiet.result.little_residency);
    EXPECT_EQ(noisy.result.bw_residency, quiet.result.bw_residency);
    EXPECT_EQ(noisy.result.gpu_residency, quiet.result.gpu_residency);
    EXPECT_EQ(noisy.samples, quiet.samples);
    ASSERT_GT(quiet.samples, 0u);
    ExpectResidenciesSumToOne(quiet);
    EXPECT_EQ(quiet.num_levels.size(), big_little ? 4u : 3u);

    const double measured_0 = quiet.result.measured_energy_j;
    const double bound =
        6.0 * sigma * measured_0 / std::sqrt(static_cast<double>(quiet.samples));
    EXPECT_LE(std::abs(noisy.result.measured_energy_j - measured_0), bound);
    // The noise is on: the two measurements differ.
    EXPECT_NE(noisy.result.measured_energy_j, measured_0);
}

std::string
CaseName(const ::testing::TestParamInfo<std::tuple<bool, std::string>>& param_info)
{
    const auto& [big_little, app] = param_info.param;
    return std::string(big_little ? "Exynos5433_" : "Nexus6_") + app;
}

INSTANTIATE_TEST_SUITE_P(StockGovernors, MonsoonNoiseInvariantTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::ValuesIn(EvaluationAppNames())),
                         CaseName);

}  // namespace
}  // namespace aeo
