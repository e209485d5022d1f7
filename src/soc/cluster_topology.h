/**
 * @file
 * The heterogeneous (big.LITTLE) SoC cluster topology.
 *
 * The paper targets a single synchronous Krait cluster, but modern
 * heterogeneous multi-processing SoCs pair a fast out-of-order "big"
 * cluster with an efficient in-order "LITTLE" one, each with its own
 * frequency domain, silicon speed and leakage characteristics (Coutinho et
 * al., PAPERS.md). This header generalizes the one-cluster assumption into
 * an explicit topology:
 *
 *  - ClusterSpec       — one frequency domain: OPP table, core count, the
 *                        per-core throughput multiplier relative to the
 *                        reference core, and dynamic/leakage power scales;
 *  - ThreadPlacement   — where the foreground's threads may run (LITTLE
 *                        only, big only, or spanning both with a migration
 *                        cost), the third scheduling axis next to the two
 *                        DVFS domains;
 *  - ClusterTopology   — the validated list of clusters plus the placement
 *                        model; a single-entry topology reproduces the
 *                        paper's homogeneous device exactly;
 *  - HetConfig         — one point of the cross-product configuration space
 *                        (big level × LITTLE level × bandwidth level ×
 *                        placement).
 */
#ifndef AEO_SOC_CLUSTER_TOPOLOGY_H_
#define AEO_SOC_CLUSTER_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/system_config.h"
#include "soc/bandwidth_table.h"
#include "soc/frequency_table.h"

namespace aeo {

/** Microarchitectural role of a cluster. */
enum class ClusterRole {
    /** The only cluster of a homogeneous SoC (the paper's Krait 450). */
    kUnified,
    /** The efficient in-order cluster (e.g. Cortex-A53). */
    kLittle,
    /** The performance out-of-order cluster (e.g. Cortex-A57). */
    kBig,
};

/** Printable role name ("unified", "little", "big"). */
std::string ClusterRoleName(ClusterRole role);

/** Placeholder single-OPP table for default-constructed ClusterSpecs
 * (FrequencyTable has no empty state); presets always replace it. */
FrequencyTable MakePlaceholderFrequencyTable();

/** One CPU frequency domain of the SoC. */
struct ClusterSpec {
    /** Human-readable name, e.g. "krait450" or "a57". */
    std::string name;
    ClusterRole role = ClusterRole::kUnified;
    /** Cores sharing this clock. */
    int num_cores = 4;
    /** First logical CPU of the domain (names the cpufreq policy dir, e.g.
     * first_cpu 4 → .../cpufreq/policy4, as on Linux big.LITTLE). */
    int first_cpu = 0;
    /** The OPP table of this domain (placeholder 1 GHz OPP until a preset
     * fills it in; FrequencyTable has no empty state). */
    FrequencyTable table = MakePlaceholderFrequencyTable();
    /**
     * Per-core throughput multiplier relative to the reference core at equal
     * clock (silicon speed: issue width, OoO window, cache). 1.0 for the
     * reference; ~0.6 for an in-order LITTLE core.
     */
    double perf_scale = 1.0;
    /** Dynamic-power coefficient multiplier vs the reference cluster. */
    double dyn_power_scale = 1.0;
    /** Leakage coefficient multiplier vs the reference cluster. */
    double leak_power_scale = 1.0;
};

/**
 * Where the foreground application's threads are allowed to run. The
 * placement is the third axis of the heterogeneous configuration space:
 * at a fixed frequency pair, confining a lightly-threaded app to the
 * LITTLE cluster saves the big cluster's leakage, while spanning both
 * buys throughput at a migration cost.
 */
enum class ThreadPlacement {
    kLittleOnly = 0,
    kBigOnly = 1,
    /** Threads spill big-first onto both clusters (HMP global scheduling). */
    kBoth = 2,
};

/** Number of ThreadPlacement values (grid enumeration bound). */
inline constexpr int kNumThreadPlacements = 3;

/** Printable placement name ("little", "big", "both"). */
std::string ThreadPlacementName(ThreadPlacement placement);

/** Cross-cluster thread migration/coherence model. */
struct PlacementModel {
    /**
     * Fractional throughput lost when a workload spans both clusters
     * (cache-line bouncing, cross-cluster migrations, asymmetric stragglers).
     * Applied multiplicatively to the spanned pool's capacity.
     */
    double span_penalty = 0.08;
};

/**
 * The validated cluster list plus the placement model. Index 0 is the
 * *primary* cluster: the only one on a homogeneous SoC, the big one on a
 * heterogeneous SoC (the controller's legacy single-cluster seam always
 * addresses the primary).
 */
class ClusterTopology {
  public:
    /** Single-cluster (homogeneous) topology. */
    explicit ClusterTopology(ClusterSpec unified, BandwidthTable bw_table);

    /** big.LITTLE topology; @p big must out-perform @p little per core. */
    ClusterTopology(ClusterSpec big, ClusterSpec little, BandwidthTable bw_table,
                    PlacementModel placement = {});

    int num_clusters() const { return static_cast<int>(clusters_.size()); }
    bool is_heterogeneous() const { return clusters_.size() > 1; }

    /** Cluster by index; 0 = primary (big on a heterogeneous SoC). */
    const ClusterSpec& cluster(int index) const;

    /** The primary cluster (index 0). */
    const ClusterSpec& primary() const { return clusters_.front(); }

    /** The LITTLE cluster; Fatal() on a homogeneous topology. */
    const ClusterSpec& little() const;

    /** The shared memory-bus table. */
    const BandwidthTable& bandwidth_table() const { return bw_table_; }

    const PlacementModel& placement_model() const { return placement_; }

    /**
     * Placements admissible on this topology: {kBigOnly} for a homogeneous
     * SoC (the legacy semantics), all three for big.LITTLE.
     */
    std::vector<ThreadPlacement> AdmissiblePlacements() const;

  private:
    void Validate() const;

    std::vector<ClusterSpec> clusters_;
    BandwidthTable bw_table_;
    PlacementModel placement_;
};

/**
 * One point of the heterogeneous configuration space. Levels are 0-based
 * indices into the respective tables; little_level is ignored for
 * placements that keep the LITTLE cluster idle only in the sense that the
 * foreground does not run there — the domain still clocks (and leaks) at
 * the level, which is exactly the trade the optimizer prices.
 */
struct HetConfig {
    int big_level = 0;
    int little_level = 0;
    int bw_level = 0;
    ThreadPlacement placement = ThreadPlacement::kBigOnly;

    constexpr auto operator<=>(const HetConfig&) const = default;

    /** "(b3, l1, w2, both)"-style label with 1-based level numbers. */
    std::string ToString() const;
};

}  // namespace aeo

#endif  // AEO_SOC_CLUSTER_TOPOLOGY_H_
