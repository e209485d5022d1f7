/**
 * @file
 * A *system configuration* (§III-A): the tuple of hardware settings the
 * controller schedules — here, CPU frequency level × memory bandwidth level,
 * exactly the paper's choice. The CPU-only controller variant (§V-D) leaves
 * the bandwidth to the default governor, expressed with kBwDefaultGovernor.
 */
#ifndef AEO_COMMON_SYSTEM_CONFIG_H_
#define AEO_COMMON_SYSTEM_CONFIG_H_

#include <compare>
#include <cstddef>
#include <string>

namespace aeo {

/** Sentinel bandwidth level: leave the bus to its default governor. */
inline constexpr int kBwDefaultGovernor = -1;

/** Sentinel GPU level: leave the GPU to its default governor (the paper's
 * configuration; §VII names GPU control as the extension). */
inline constexpr int kGpuDefaultGovernor = -1;

/** Sentinel LITTLE-cluster level: no LITTLE cluster under control (the
 * homogeneous single-cluster SoC, the paper's Nexus 6). */
inline constexpr int kNoLittleCluster = -1;

/**
 * Most CPU frequency domains a SoC may have. The configuration tuple below
 * names two (cpu_level, little_level), and the plant's per-cluster arrays
 * (power inputs, execution rates) are fixed-capacity at this bound so the
 * hot path never allocates.
 */
inline constexpr size_t kMaxCpuClusters = 2;

/**
 * Foreground thread-placement codes, value-compatible with
 * soc/cluster_topology.h's ThreadPlacement (common sits below soc in the
 * include DAG, so the enum cannot be named here). kPlacementDefault keeps
 * the legacy semantics: all threads on the primary cluster.
 */
inline constexpr int kPlacementDefault = -1;
inline constexpr int kPlacementLittleOnly = 0;
inline constexpr int kPlacementBigOnly = 1;
inline constexpr int kPlacementBoth = 2;

/** One schedulable hardware configuration. */
struct SystemConfig {
    /** 0-based CPU frequency level (primary/big cluster). */
    int cpu_level = 0;
    /** 0-based bandwidth level, or kBwDefaultGovernor (CPU-only control). */
    int bw_level = 0;
    /** 0-based GPU level, or kGpuDefaultGovernor (the paper's setup). */
    int gpu_level = kGpuDefaultGovernor;
    /** 0-based LITTLE-cluster level, or kNoLittleCluster (homogeneous). */
    int little_level = kNoLittleCluster;
    /** Thread placement code, or kPlacementDefault (legacy big-only). */
    int placement = kPlacementDefault;

    constexpr auto operator<=>(const SystemConfig&) const = default;

    /** True when the bus is controller-managed. */
    bool controls_bandwidth() const { return bw_level != kBwDefaultGovernor; }

    /** True when the GPU is controller-managed (§VII extension). */
    bool controls_gpu() const { return gpu_level != kGpuDefaultGovernor; }

    /** True when a LITTLE cluster is controller-managed (big.LITTLE). */
    bool controls_little() const { return little_level != kNoLittleCluster; }

    /** Level of cluster @p index: cpu_level for the primary, else
     * little_level. */
    int
    cluster_level(size_t index) const
    {
        return index == 0 ? cpu_level : little_level;
    }

    /** Paper-style label, e.g. "(5, 1)" with 1-based level numbers; the GPU
     * level is appended only when controlled, e.g. "(5, 1, g3)", and the
     * LITTLE level/placement only on big.LITTLE, e.g. "(5, 1, l2, p2)". */
    std::string ToString() const;
};

}  // namespace aeo

#endif  // AEO_COMMON_SYSTEM_CONFIG_H_
