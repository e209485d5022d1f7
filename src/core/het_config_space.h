/**
 * @file
 * The heterogeneous configuration space.
 *
 * A big.LITTLE topology turns the paper's (CPU level × bandwidth level)
 * grid into a four-axis cross-product (big level × LITTLE level ×
 * bandwidth level × placement): 7·6·8·3 = 1008 points on an
 * Exynos 5433-class part, an order of magnitude more than the 234-point
 * Nexus 6 grid. Every level of every ladder is a candidate: a cluster's
 * full-load P(f) is strictly convex on each ladder we ship, so each OPP
 * lies on the lower convex hull of its (f, P) curve and no level is
 * energy-dominated by a time-mix of its neighbours. That law is tested in
 * tests/power/power_curve_convexity_test.cc (label invariants), and
 * tests/core/het_config_space_test.cc checks the optimizer over the full
 * cross-product bit-identical to the brute-force pair search on 1000
 * seeded tables.
 */
#ifndef AEO_CORE_HET_CONFIG_SPACE_H_
#define AEO_CORE_HET_CONFIG_SPACE_H_

#include <vector>

#include "common/system_config.h"
#include "power/power_model.h"
#include "soc/cluster_topology.h"

namespace aeo {

/** Enumeration options for the heterogeneous candidate grid. */
struct HetSpaceOptions {
    /** Bandwidth levels to include; empty = every level of the table. */
    std::vector<int> bw_levels;
};

/**
 * The candidate configuration grid for @p topology: the (big × LITTLE ×
 * bandwidth × placement) cross-product over the admissible placements on
 * big.LITTLE, the legacy (cpu × bandwidth) grid on a homogeneous topology
 * (little_level and placement keep their sentinel defaults there, so the
 * resulting configs are byte-compatible with the historical grid). Order:
 * big level outermost, then LITTLE, bandwidth, placement — ascending each.
 */
std::vector<SystemConfig> EnumerateHetConfigs(
    const ClusterTopology& topology,
    const PowerModel& /* unused; kept so existing callers build unchanged */,
    const HetSpaceOptions& options = {});

}  // namespace aeo

#endif  // AEO_CORE_HET_CONFIG_SPACE_H_
