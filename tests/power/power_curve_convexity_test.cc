/**
 * @file
 * Physical law of the power model, independent of snapshot bytes: on every
 * CPU ladder we ship, a cluster's full-load power P(f) (all cores online and
 * busy, reference temperature) is strictly increasing and strictly convex
 * in f, i.e. each chord slope between neighbouring OPPs is strictly larger
 * than the one before.
 *
 * This is De Vogeleer et al.'s energy/frequency convexity rule. With it,
 * every OPP lies on the lower convex hull of {(f_i, P_i)}: no level is
 * energy-dominated by a time-mix of its neighbours, so the heterogeneous
 * configuration space crosses the full ladders (DESIGN.md §15).
 */
#include <gtest/gtest.h>

#include <vector>

#include "power/power_model.h"
#include "soc/cluster_topology.h"
#include "soc/exynos5433.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

struct Ladder {
    PowerModelParams params;
    ClusterSpec cluster;
};

/** The Nexus 6 Krait 450 and the Exynos 5433's A57 and A53. */
std::vector<Ladder>
ShippedLadders()
{
    const ClusterTopology nexus6 = MakeNexus6Topology();
    const ClusterTopology exynos = MakeExynos5433Topology();
    return {{MakeNexus6PowerParams(), nexus6.primary()},
            {MakeExynos5433PowerParams(), exynos.primary()},
            {MakeExynos5433PowerParams(), exynos.little()}};
}

TEST(PowerCurveConvexityTest, FullLoadPowerIsStrictlyConvexOnEveryLadder)
{
    for (const Ladder& ladder : ShippedLadders()) {
        const PowerModel model(ladder.params);
        const ClusterSpec& cluster = ladder.cluster;
        const FrequencyTable& table = cluster.table;
        ASSERT_GE(table.size(), 3) << cluster.name;
        const auto full_load_power = [&](int level) {
            return model.ClusterCpuPower(
                table.FrequencyAt(level), table.VoltageAt(level), cluster.num_cores,
                /*busy_cores=*/static_cast<double>(cluster.num_cores),
                cluster.dyn_power_scale, cluster.leak_power_scale,
                /*leak_temp_scale=*/1.0);
        };

        // slopes[i] is the chord from level i to level i + 1.
        std::vector<double> slopes;
        for (int level = 1; level < table.size(); ++level) {
            const double df =
                (table.FrequencyAt(level) - table.FrequencyAt(level - 1)).value();
            const double dp = full_load_power(level) - full_load_power(level - 1);
            ASSERT_GT(df, 0.0) << cluster.name << " level " << level;
            EXPECT_GT(dp, 0.0) << cluster.name << ": P(f) falls at level " << level;
            slopes.push_back(dp / df);
        }
        // The smallest relative slope increase is 2.5% on the Krait 450, 17%
        // on the A57 and 15% on the A53.
        for (size_t i = 1; i < slopes.size(); ++i) {
            EXPECT_GT(slopes[i], slopes[i - 1])
                << cluster.name << ": level " << i
                << " lies on or above the chord of its neighbours";
        }
    }
}

}  // namespace
}  // namespace aeo
