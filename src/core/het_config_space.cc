#include "core/het_config_space.h"

namespace aeo {

std::vector<SystemConfig>
EnumerateHetConfigs(const ClusterTopology& topology, const PowerModel&,
                    const HetSpaceOptions& options)
{
    std::vector<int> bw_levels = options.bw_levels;
    if (bw_levels.empty()) {
        for (int bw = 0; bw < topology.bandwidth_table().size(); ++bw) {
            bw_levels.push_back(bw);
        }
    }
    const int big_levels = topology.primary().table.size();

    std::vector<SystemConfig> grid;
    if (!topology.is_heterogeneous()) {
        // Legacy (cpu, bw) grid: sentinels untouched, byte-compatible with
        // the historical enumeration.
        grid.reserve(static_cast<size_t>(big_levels) * bw_levels.size());
        for (int cpu = 0; cpu < big_levels; ++cpu) {
            for (const int bw : bw_levels) {
                grid.push_back(SystemConfig{cpu, bw});
            }
        }
        return grid;
    }

    const int little_levels = topology.little().table.size();
    const std::vector<ThreadPlacement> placements =
        topology.AdmissiblePlacements();
    grid.reserve(static_cast<size_t>(big_levels * little_levels) *
                 bw_levels.size() * placements.size());
    for (int big = 0; big < big_levels; ++big) {
        for (int little = 0; little < little_levels; ++little) {
            for (const int bw : bw_levels) {
                for (const ThreadPlacement placement : placements) {
                    SystemConfig config{big, bw};
                    config.little_level = little;
                    config.placement = static_cast<int>(placement);
                    grid.push_back(config);
                }
            }
        }
    }
    return grid;
}

}  // namespace aeo
