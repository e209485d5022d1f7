#include "soc/cluster_topology.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace aeo {

std::string
ClusterRoleName(ClusterRole role)
{
    switch (role) {
      case ClusterRole::kUnified:
        return "unified";
      case ClusterRole::kLittle:
        return "little";
      case ClusterRole::kBig:
        return "big";
    }
    AEO_PANIC("unreachable cluster role");
}

FrequencyTable
MakePlaceholderFrequencyTable()
{
    std::vector<OppEntry> entries;
    entries.push_back(OppEntry{Gigahertz(1.0), Volts(1.0)});
    return FrequencyTable(std::move(entries));
}

std::string
ThreadPlacementName(ThreadPlacement placement)
{
    switch (placement) {
      case ThreadPlacement::kLittleOnly:
        return "little";
      case ThreadPlacement::kBigOnly:
        return "big";
      case ThreadPlacement::kBoth:
        return "both";
    }
    AEO_PANIC("unreachable thread placement");
}

ClusterTopology::ClusterTopology(ClusterSpec unified, BandwidthTable bw_table)
    : bw_table_(std::move(bw_table))
{
    clusters_.push_back(std::move(unified));
    Validate();
}

ClusterTopology::ClusterTopology(ClusterSpec big, ClusterSpec little,
                                 BandwidthTable bw_table, PlacementModel placement)
    : bw_table_(std::move(bw_table)), placement_(placement)
{
    clusters_.push_back(std::move(big));
    clusters_.push_back(std::move(little));
    Validate();
}

const ClusterSpec&
ClusterTopology::cluster(int index) const
{
    AEO_ASSERT(index >= 0 && index < num_clusters(), "cluster index %d out of range",
               index);
    return clusters_[static_cast<size_t>(index)];
}

const ClusterSpec&
ClusterTopology::little() const
{
    AEO_ASSERT(is_heterogeneous(), "homogeneous topology has no LITTLE cluster");
    return clusters_[1];
}

std::vector<ThreadPlacement>
ClusterTopology::AdmissiblePlacements() const
{
    if (!is_heterogeneous()) {
        return {ThreadPlacement::kBigOnly};
    }
    return {ThreadPlacement::kLittleOnly, ThreadPlacement::kBigOnly,
            ThreadPlacement::kBoth};
}

void
ClusterTopology::Validate() const
{
    // The plant's per-cluster arrays are fixed-capacity (kMaxCpuClusters).
    AEO_ASSERT(!clusters_.empty() && clusters_.size() <= kMaxCpuClusters,
               "topology must have 1 or 2 clusters, got %zu", clusters_.size());
    for (const ClusterSpec& spec : clusters_) {
        AEO_ASSERT(spec.num_cores > 0, "cluster '%s' has no cores",
                   spec.name.c_str());
        AEO_ASSERT(spec.first_cpu >= 0, "cluster '%s' first_cpu negative",
                   spec.name.c_str());
        AEO_ASSERT(spec.table.size() > 0, "cluster '%s' has an empty OPP table",
                   spec.name.c_str());
        AEO_ASSERT(spec.perf_scale > 0.0, "cluster '%s' perf_scale must be > 0",
                   spec.name.c_str());
        AEO_ASSERT(spec.dyn_power_scale > 0.0 && spec.leak_power_scale > 0.0,
                   "cluster '%s' power scales must be > 0", spec.name.c_str());
    }
    if (clusters_.size() == 2) {
        const ClusterSpec& big = clusters_[0];
        const ClusterSpec& little = clusters_[1];
        AEO_ASSERT(big.role == ClusterRole::kBig &&
                       little.role == ClusterRole::kLittle,
                   "heterogeneous topology must order [big, little]");
        AEO_ASSERT(big.perf_scale > little.perf_scale,
                   "big cluster must out-perform LITTLE per core");
        // The two policy domains must not overlap in CPU numbering.
        const bool disjoint =
            big.first_cpu >= little.first_cpu + little.num_cores ||
            little.first_cpu >= big.first_cpu + big.num_cores;
        AEO_ASSERT(disjoint, "cluster CPU ranges overlap");
        AEO_ASSERT(placement_.span_penalty >= 0.0 && placement_.span_penalty < 1.0,
                   "span penalty %f out of [0, 1)", placement_.span_penalty);
    }
}

std::string
HetConfig::ToString() const
{
    return StrFormat("(b%d, l%d, w%d, %s)", big_level + 1, little_level + 1,
                     bw_level + 1, ThreadPlacementName(placement).c_str());
}

}  // namespace aeo
