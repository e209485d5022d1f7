/**
 * @file
 * The heterogeneous configuration space and its convexity pruner.
 *
 * The load-bearing guarantee is the oracle property test: on 1000 seeded
 * random per-cluster frequency/power tables, the energy optimizer run over
 * the hull-pruned cross-product returns *bit-identical* schedules to the
 * brute-force pair search over the exhaustive cross-product. The pruner may
 * only drop configurations that can never appear in an optimal time-mix.
 */
#include "core/het_config_space.h"

#include <algorithm>
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

TEST(ConvexHullLevelsTest, StrictlyConvexCurveKeepsEveryLevel)
{
    // P(f) = f² is strictly convex: every point lies on the lower hull.
    const std::vector<double> freqs = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> powers = {1.0, 4.0, 9.0, 16.0};
    EXPECT_EQ(ConvexHullLevels(4, freqs, powers),
              (std::vector<int>{0, 1, 2, 3}));
}

TEST(ConvexHullLevelsTest, PointAboveTheChordIsPruned)
{
    // Level 1 costs more than the 0–2 time-mix delivering the same average
    // frequency: 0.5·(1+9) = 5 < 7.
    const std::vector<double> freqs = {1.0, 2.0, 3.0};
    const std::vector<double> powers = {1.0, 7.0, 9.0};
    EXPECT_EQ(ConvexHullLevels(3, freqs, powers), (std::vector<int>{0, 2}));
}

TEST(ConvexHullLevelsTest, CollinearInteriorPointIsRedundant)
{
    const std::vector<double> freqs = {1.0, 2.0, 3.0};
    const std::vector<double> powers = {1.0, 2.0, 3.0};
    EXPECT_EQ(ConvexHullLevels(3, freqs, powers), (std::vector<int>{0, 2}));
}

TEST(ConvexHullLevelsTest, EndpointsAlwaysSurvive)
{
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        const int n = static_cast<int>(rng.UniformInt(1, 12));
        std::vector<double> freqs;
        std::vector<double> powers;
        double f = rng.Uniform(0.2, 0.5);
        double p = rng.Uniform(50.0, 200.0);
        for (int i = 0; i < n; ++i) {
            freqs.push_back(f);
            powers.push_back(p);
            f += rng.Uniform(0.05, 0.3);
            p += rng.Uniform(10.0, 400.0);
        }
        const std::vector<int> hull = ConvexHullLevels(n, freqs, powers);
        ASSERT_FALSE(hull.empty());
        EXPECT_EQ(hull.front(), 0);
        EXPECT_EQ(hull.back(), n - 1);
        EXPECT_LE(hull.size(), static_cast<size_t>(n));
        EXPECT_TRUE(std::is_sorted(hull.begin(), hull.end()));
    }
}

TEST(HetConfigSpaceTest, ClusterPowerCurveIsIncreasing)
{
    const PowerModel model(MakeExynos5433PowerParams());
    const ClusterTopology topology = MakeExynos5433Topology();
    for (const ClusterSpec* cluster :
         {&topology.primary(), &topology.little()}) {
        const std::vector<double> curve = ClusterPowerCurve(model, *cluster);
        ASSERT_EQ(curve.size(), static_cast<size_t>(cluster->table.size()));
        for (size_t i = 1; i < curve.size(); ++i) {
            EXPECT_GT(curve[i], curve[i - 1]) << cluster->name << " level " << i;
        }
    }
}

TEST(HetConfigSpaceTest, HomogeneousEnumerationMatchesTheLegacyGrid)
{
    const PowerModel model(MakeNexus6PowerParams());
    const ClusterTopology topology = MakeNexus6Topology();
    HetSpaceOptions options;
    options.prune_convex = false;
    const std::vector<SystemConfig> grid =
        EnumerateHetConfigs(topology, model, options);

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
    HetSpaceOptions options;
    options.prune_convex = false;
    const std::vector<SystemConfig> grid =
        EnumerateHetConfigs(topology, model, options);
    EXPECT_EQ(grid.size(),
              static_cast<size_t>(kExynos5433BigLevels * kExynos5433LittleLevels *
                                  kExynos5433BwLevels * kNumThreadPlacements));
    for (const SystemConfig& config : grid) {
        EXPECT_TRUE(config.controls_little());
        EXPECT_NE(config.placement, kPlacementDefault);
    }
}

TEST(HetConfigSpaceTest, PrunedGridIsASubsetOfTheExhaustiveGrid)
{
    const PowerModel model(MakeExynos5433PowerParams());
    const ClusterTopology topology = MakeExynos5433Topology();
    const std::vector<SystemConfig> pruned =
        EnumerateHetConfigs(topology, model);
    HetSpaceOptions exhaustive;
    exhaustive.prune_convex = false;
    const std::vector<SystemConfig> full =
        EnumerateHetConfigs(topology, model, exhaustive);

    EXPECT_LE(pruned.size(), full.size());
    for (const SystemConfig& config : pruned) {
        EXPECT_NE(std::find(full.begin(), full.end(), config), full.end());
    }
    // Both endpoint frequencies survive per cluster.
    const auto big_hull = ConvexPrunedLevels(model, topology.primary());
    const auto little_hull = ConvexPrunedLevels(model, topology.little());
    EXPECT_EQ(big_hull.front(), 0);
    EXPECT_EQ(big_hull.back(), kExynos5433BigLevels - 1);
    EXPECT_EQ(little_hull.front(), 0);
    EXPECT_EQ(little_hull.back(), kExynos5433LittleLevels - 1);
    EXPECT_EQ(pruned.size(), big_hull.size() * little_hull.size() *
                                 kExynos5433BwLevels * kNumThreadPlacements);
}

/** One random per-cluster curve: strictly increasing frequency and power.
 * Power is *not* convexified, so interior levels genuinely get pruned. */
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
 * The oracle property (satellite of the big.LITTLE tentpole): pruning each
 * cluster's ladder to its (f, P) lower hull never changes the optimizer's
 * answer, because the workload speedup is affine in each cluster's
 * frequency and the schedule LP may time-mix configurations — an off-hull
 * level is strictly dominated by the mix of its hull neighbours. 1000
 * seeded tables, bit-identical expected power/speedup and slot configs,
 * and the pruned search visits at most O(hull_big × hull_little) pairs
 * instead of O(n_big × n_little).
 */
TEST(HetConfigSpaceTest, PrunedOptimizerIsBitIdenticalToBruteForceOn1kTables)
{
    Rng rng(20170218);  // HPCA'17 vintage.
    size_t total_full = 0;
    size_t total_pruned = 0;

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

        const auto make_entries = [&](const std::vector<int>& big_levels,
                                      const std::vector<int>& little_levels) {
            std::vector<ProfileEntry> entries;
            for (const int b : big_levels) {
                for (const int l : little_levels) {
                    SystemConfig config{b, 0};
                    config.little_level = l;
                    config.placement = kPlacementBoth;
                    ProfileEntry entry;
                    entry.config = config;
                    entry.speedup =
                        (w_big * big.freqs[static_cast<size_t>(b)] +
                         w_little * little.freqs[static_cast<size_t>(l)]) /
                        norm;
                    entry.power_mw =
                        Milliwatts(big.powers[static_cast<size_t>(b)] +
                                   little.powers[static_cast<size_t>(l)]);
                    entries.push_back(entry);
                }
            }
            return entries;
        };

        std::vector<int> all_big(static_cast<size_t>(n_big));
        std::vector<int> all_little(static_cast<size_t>(n_little));
        for (int i = 0; i < n_big; ++i) {
            all_big[static_cast<size_t>(i)] = i;
        }
        for (int i = 0; i < n_little; ++i) {
            all_little[static_cast<size_t>(i)] = i;
        }
        const std::vector<int> hull_big =
            ConvexHullLevels(n_big, big.freqs, big.powers);
        const std::vector<int> hull_little =
            ConvexHullLevels(n_little, little.freqs, little.powers);
        ASSERT_LE(hull_big.size(), static_cast<size_t>(n_big));
        ASSERT_LE(hull_little.size(), static_cast<size_t>(n_little));

        const ProfileTable full("full", make_entries(all_big, all_little), 1.0);
        const ProfileTable pruned("pruned", make_entries(hull_big, hull_little),
                                  1.0);
        total_full += full.size();
        total_pruned += pruned.size();

        // Oracle: the paper's O(N²) pair enumeration (the src/lp reference
        // solver) over the exhaustive cross-product. Candidate: the hull
        // walk over the pruned one.
        std::vector<double> full_speedups;
        std::vector<double> full_powers;
        for (const ProfileEntry& entry : full.entries()) {
            full_speedups.push_back(entry.speedup);
            full_powers.push_back(entry.power_mw.value());
        }
        const EnergyOptimizer candidate(&pruned);

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
                EXPECT_EQ(pruned.entries()[got.slots[i].entry_index].config,
                          full.entries()[want_rows[i]].config)
                    << "trial " << trial << " slot " << i;
                EXPECT_EQ(got.slots[i].seconds, want.x[want_rows[i]]);
            }
        }
    }

    // The pruning must have actually bitten across the campaign — a
    // vacuous pass (nothing ever pruned) would prove nothing.
    EXPECT_LT(total_pruned, total_full / 2);
}

}  // namespace
}  // namespace aeo
