#include "soc/cluster_topology.h"

#include <gtest/gtest.h>

#include "soc/exynos5433.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

TEST(ClusterTopologyTest, Nexus6IsHomogeneous)
{
    const ClusterTopology topo = MakeNexus6Topology();
    EXPECT_EQ(topo.num_clusters(), 1);
    EXPECT_FALSE(topo.is_heterogeneous());
    EXPECT_EQ(topo.primary().name, "krait450");
    EXPECT_EQ(topo.primary().role, ClusterRole::kUnified);
    EXPECT_EQ(topo.primary().num_cores, kNexus6Cores);
    EXPECT_EQ(topo.primary().table.size(), kNexus6CpuLevels);
    EXPECT_EQ(topo.bandwidth_table().size(), kNexus6BwLevels);
    EXPECT_DOUBLE_EQ(topo.primary().perf_scale, 1.0);
    EXPECT_DOUBLE_EQ(topo.primary().dyn_power_scale, 1.0);
    EXPECT_DOUBLE_EQ(topo.primary().leak_power_scale, 1.0);
}

TEST(ClusterTopologyTest, HomogeneousAdmitsBigOnlyPlacement)
{
    const ClusterTopology topo = MakeNexus6Topology();
    const std::vector<ThreadPlacement> placements = topo.AdmissiblePlacements();
    ASSERT_EQ(placements.size(), 1u);
    EXPECT_EQ(placements[0], ThreadPlacement::kBigOnly);
}

TEST(ClusterTopologyTest, Exynos5433IsValidBigLittle)
{
    const ClusterTopology topo = MakeExynos5433Topology();
    EXPECT_EQ(topo.num_clusters(), 2);
    EXPECT_TRUE(topo.is_heterogeneous());
    EXPECT_EQ(topo.primary().role, ClusterRole::kBig);
    EXPECT_EQ(topo.little().role, ClusterRole::kLittle);
    EXPECT_EQ(topo.primary().table.size(), kExynos5433BigLevels);
    EXPECT_EQ(topo.little().table.size(), kExynos5433LittleLevels);
    EXPECT_EQ(topo.bandwidth_table().size(), kExynos5433BwLevels);
    // Linux policy naming: policy4 for the A57s, policy0 for the A53s.
    EXPECT_EQ(topo.primary().first_cpu, 4);
    EXPECT_EQ(topo.little().first_cpu, 0);
    EXPECT_GT(topo.primary().perf_scale, topo.little().perf_scale);
    EXPECT_LT(topo.little().dyn_power_scale, 1.0);
    EXPECT_EQ(topo.AdmissiblePlacements().size(), 3u);
}

TEST(ClusterTopologyTest, BigClusterIsFasterAtEveryOppPair)
{
    // The per-core equivalent throughput of the slowest big OPP must beat
    // the fastest LITTLE OPP; otherwise the placement axis degenerates.
    const ClusterTopology topo = MakeExynos5433Topology();
    const ClusterSpec& big = topo.primary();
    const ClusterSpec& little = topo.little();
    const double big_min =
        big.table.FrequencyAt(0).value() * big.perf_scale;
    const double little_max =
        little.table.FrequencyAt(little.table.size() - 1).value() *
        little.perf_scale;
    EXPECT_LT(little_max, big_min * 2.0);
    EXPECT_GT(little_max, big_min * 0.5);
}

TEST(ClusterTopologyTest, ToStringUsesOneBasedLevels)
{
    HetConfig config;
    config.big_level = 2;
    config.little_level = 0;
    config.bw_level = 4;
    config.placement = ThreadPlacement::kBoth;
    EXPECT_EQ(config.ToString(), "(b3, l1, w5, both)");
}

TEST(ClusterTopologyTest, PlaceholderTableHasOneOpp)
{
    const FrequencyTable table = MakePlaceholderFrequencyTable();
    EXPECT_EQ(table.size(), 1);
    EXPECT_DOUBLE_EQ(table.FrequencyAt(0).value(), 1.0);
}

TEST(ClusterTopologyTest, PlacementAndRoleNames)
{
    EXPECT_EQ(ClusterRoleName(ClusterRole::kUnified), "unified");
    EXPECT_EQ(ClusterRoleName(ClusterRole::kBig), "big");
    EXPECT_EQ(ClusterRoleName(ClusterRole::kLittle), "little");
    EXPECT_EQ(ThreadPlacementName(ThreadPlacement::kLittleOnly), "little");
    EXPECT_EQ(ThreadPlacementName(ThreadPlacement::kBigOnly), "big");
    EXPECT_EQ(ThreadPlacementName(ThreadPlacement::kBoth), "both");
}

}  // namespace
}  // namespace aeo
