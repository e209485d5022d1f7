/**
 * @file
 * The heterogeneous configuration space.
 *
 * The enumeration is a plain cross-product of the full ladders (the
 * convexity law in tests/power/power_curve_convexity_test.cc says every
 * level of a shipped ladder is on its hull). The load-bearing guarantee is
 * the oracle property test: on 1000 seeded random per-cluster
 * frequency/power tables, the energy optimizer run over the cross-product
 * returns *bit-identical* schedules to the brute-force pair search.
 */
#include "core/het_config_space.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "core/energy_optimizer.h"
#include "lp/schedule_lp.h"
#include "power/power_model.h"
#include "soc/exynos5433.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

TEST(HetConfigSpaceTest, HomogeneousEnumerationMatchesTheLegacyGrid)
{
    const PowerModel model(MakeNexus6PowerParams());
    const ClusterTopology topology = MakeNexus6Topology();
    const std::vector<SystemConfig> grid = EnumerateHetConfigs(topology, model);

    const int cpu_levels = topology.primary().table.size();
    const int bw_levels = topology.bandwidth_table().size();
    ASSERT_EQ(grid.size(), static_cast<size_t>(cpu_levels * bw_levels));
    for (const SystemConfig& config : grid) {
        EXPECT_FALSE(config.controls_little());
        EXPECT_EQ(config.placement, kPlacementDefault);
    }
    EXPECT_EQ(grid.front(), (SystemConfig{0, 0}));
    EXPECT_EQ(grid.back(), (SystemConfig{cpu_levels - 1, bw_levels - 1}));
}

TEST(HetConfigSpaceTest, ExhaustiveBigLittleGridIsTheFullCrossProduct)
{
    const PowerModel model(MakeExynos5433PowerParams());
    const ClusterTopology topology = MakeExynos5433Topology();
    const std::vector<SystemConfig> grid = EnumerateHetConfigs(topology, model);
    EXPECT_EQ(grid.size(),
              static_cast<size_t>(kExynos5433BigLevels * kExynos5433LittleLevels *
                                  kExynos5433BwLevels * kNumThreadPlacements));
    for (const SystemConfig& config : grid) {
        EXPECT_TRUE(config.controls_little());
        EXPECT_NE(config.placement, kPlacementDefault);
    }
}

/** One random per-cluster curve: strictly increasing frequency and power.
 * Power is *not* convexified, so the optimizer's hull walk must skip the
 * interior levels that lie above their neighbours' chord. */
struct RandomCluster {
    std::vector<double> freqs;
    std::vector<double> powers;
};

RandomCluster
MakeRandomCluster(Rng* rng, int levels)
{
    RandomCluster cluster;
    double f = rng->Uniform(0.3, 0.7);
    double p = rng->Uniform(80.0, 300.0);
    for (int i = 0; i < levels; ++i) {
        cluster.freqs.push_back(f);
        cluster.powers.push_back(p);
        f += rng->Uniform(0.1, 0.4);
        p += rng->Uniform(20.0, 900.0);
    }
    return cluster;
}

/**
 * The oracle property: over the full (big × LITTLE) cross-product, the
 * energy optimizer's lower-convex-hull walk returns the answer of the
 * paper's O(N²) pair search, even when a cluster's power curve is not
 * convex. The workload speedup is affine in each cluster's frequency and
 * the schedule LP may time-mix configurations. 1000 seeded tables,
 * bit-identical expected power/speedup and slot configs.
 */
TEST(HetConfigSpaceTest, OptimizerIsBitIdenticalToBruteForceOn1kTables)
{
    Rng rng(20170218);  // HPCA'17 vintage.

    for (int trial = 0; trial < 1000; ++trial) {
        const int n_big = static_cast<int>(rng.UniformInt(3, 9));
        const int n_little = static_cast<int>(rng.UniformInt(3, 8));
        const RandomCluster big = MakeRandomCluster(&rng, n_big);
        const RandomCluster little = MakeRandomCluster(&rng, n_little);

        // Speedup affine in each cluster's clock (each cluster contributes
        // throughput proportional to frequency × silicon weight).
        const double w_big = rng.Uniform(0.6, 1.4);
        const double w_little = rng.Uniform(0.2, 0.8);
        const double norm = w_big * big.freqs[0] + w_little * little.freqs[0];

        std::vector<ProfileEntry> entries;
        for (int b = 0; b < n_big; ++b) {
            for (int l = 0; l < n_little; ++l) {
                SystemConfig config{b, 0};
                config.little_level = l;
                config.placement = kPlacementBoth;
                ProfileEntry entry;
                entry.config = config;
                entry.speedup = (w_big * big.freqs[static_cast<size_t>(b)] +
                                 w_little * little.freqs[static_cast<size_t>(l)]) /
                                norm;
                entry.power_mw = Milliwatts(big.powers[static_cast<size_t>(b)] +
                                            little.powers[static_cast<size_t>(l)]);
                entries.push_back(entry);
            }
        }
        const ProfileTable full("full", std::move(entries), 1.0);

        // Oracle: the paper's O(N²) pair enumeration (the src/lp reference
        // solver). Candidate: the product optimizer's hull walk.
        std::vector<double> full_speedups;
        std::vector<double> full_powers;
        for (const ProfileEntry& entry : full.entries()) {
            full_speedups.push_back(entry.speedup);
            full_powers.push_back(entry.power_mw.value());
        }
        const EnergyOptimizer candidate(&full);

        for (int k = 0; k < 5; ++k) {
            const double s =
                rng.Uniform(full.min_speedup() * 0.95, full.max_speedup() * 1.05);
            const LpSolution want = SolveSchedulePairs(
                full_speedups, full_powers,
                Clamp(s, full.min_speedup(), full.max_speedup()), 2.0);
            ASSERT_TRUE(want.feasible);
            const ConfigSchedule got = candidate.Optimize(s, 2.0);
            // The oracle's non-zero dwells in row order, which is speedup
            // order: lower speedup first, as in the optimizer's slots.
            std::vector<size_t> want_rows;
            double want_speedup_time = 0.0;
            for (size_t i = 0; i < want.x.size(); ++i) {
                if (want.x[i] > 0.0) {
                    want_rows.push_back(i);
                    want_speedup_time += full_speedups[i] * want.x[i];
                }
            }

            // Bit-identical, not approximately equal: both solvers must
            // select the same rows and run the same dwell arithmetic.
            ASSERT_EQ(got.expected_power_mw.value(), want.objective_value / 2.0)
                << "trial " << trial << " speedup " << s;
            ASSERT_EQ(got.expected_speedup, want_speedup_time / 2.0)
                << "trial " << trial << " speedup " << s;
            ASSERT_EQ(got.slots.size(), want_rows.size());
            for (size_t i = 0; i < got.slots.size(); ++i) {
                EXPECT_EQ(full.entries()[got.slots[i].entry_index].config,
                          full.entries()[want_rows[i]].config)
                    << "trial " << trial << " slot " << i;
                EXPECT_EQ(got.slots[i].seconds, want.x[want_rows[i]]);
            }
        }
    }
}

}  // namespace
}  // namespace aeo
