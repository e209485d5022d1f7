/**
 * @file
 * The analytic execution (performance) model.
 *
 * The controller in the paper only ever observes application performance in
 * GIPS as a function of the system configuration (CPU frequency × memory
 * bandwidth). This model produces that observable surface with the
 * qualitative properties the paper reports:
 *
 *  - compute-bound work scales ~linearly with CPU frequency,
 *  - memory-intensive work saturates as bandwidth becomes the bottleneck,
 *  - rate-paced applications (games, video/audio players, video calls) cap
 *    at their demand and leave the CPU partially idle,
 *  - a background load steals bandwidth and core time.
 *
 * Per-instruction latency is modelled as serial compute + memory time
 * (no overlap), with a workload's compute summed over the cores it holds on
 * each cluster (eq_i = f_i · perf_scale_i):
 *
 *     t_instr = 1 / Σ_i (eq_i · ipc) · cores_i + bytes_per_instr / bw_effective
 *     rate    = min(demand, 1 / t_instr)
 */
#ifndef AEO_SOC_EXECUTION_ENGINE_H_
#define AEO_SOC_EXECUTION_ENGINE_H_

#include <limits>

#include "common/static_vector.h"
#include "common/system_config.h"
#include "common/units.h"
#include "soc/cluster_topology.h"

namespace aeo {

/** Demand a workload places on the SoC while in its current phase. */
struct WorkloadDemand {
    /** Per-core instructions per cycle achieved by this code. */
    double ipc = 1.0;
    /** Effective number of concurrently busy cores (1 .. num_cores). */
    double parallelism = 1.0;
    /** Average bytes of bus traffic per instruction. */
    double mem_bytes_per_instr = 0.0;
    /** Rate cap in GIPS; infinity for self-paced (batch) work. */
    double demand_gips = std::numeric_limits<double>::infinity();

    /** True when the workload runs as fast as the hardware allows. */
    bool self_paced() const { return !(demand_gips < std::numeric_limits<double>::infinity()); }
};

/** What a workload achieves at a given configuration. */
struct ExecutionRates {
    /** Achieved instruction rate. */
    double gips = 0.0;
    /** Core-seconds consumed per second of wall time (0 .. num_cores). */
    double busy_cores = 0.0;
    /** Bus traffic generated, GB/s. */
    double mem_gbps = 0.0;
    /** Hardware-limited rate at this configuration (ignoring demand cap). */
    double capacity_gips = 0.0;

    /** CPU load as a governor sees it: busy fraction of allotted cores. */
    double
    LoadFraction(double allotted_cores) const
    {
        if (allotted_cores <= 0.0) {
            return 0.0;
        }
        const double load = busy_cores / allotted_cores;
        return load > 1.0 ? 1.0 : load;
    }
};

/** Tunable constants of the execution model. */
struct ExecutionModelParams {
    /** Fraction of nominal bus bandwidth usable by instruction streams. */
    double bandwidth_efficiency = 0.85;
    /** Fraction of capacity a background load may claim before yielding. */
    double background_share = 0.35;
    /**
     * Prefetcher/writeback bus traffic per busy core, GB/s. This traffic is
     * latency-tolerant (it does not gate instruction throughput) but the
     * cpubw_hwmon governor cannot tell it apart from demand traffic — the
     * reason the default bandwidth governor over-provisions the bus for
     * busy workloads (§V-D, Fig. 5).
     */
    double prefetch_gbps_per_busy_core = 0.15;
};

/** One cluster's operating point as the execution model sees it. */
struct ClusterOperatingPoint {
    Gigahertz frequency{1.0};
    /** Per-core throughput multiplier (ClusterSpec::perf_scale). */
    double perf_scale = 1.0;
    int online_cores = 0;
};

/** The SoC's clusters in topology order: primary (fastest) first. */
using ClusterOperatingPoints = StaticVector<ClusterOperatingPoint, kMaxCpuClusters>;

/** What one cluster carries under the shared rates. */
struct ClusterLoad {
    /** Busy core-seconds per second on the cluster (fg + bg). */
    double busy_cores = 0.0;
    /** Busiest-core load: what the cluster's cpufreq governor sees. */
    double max_core_load = 0.0;
};

/**
 * Foreground + background rates at one configuration, with the per-cluster
 * split the device needs to drive per-cluster load meters and the power
 * model. The analytic model runs a workload's assigned cores in lockstep,
 * so one utilization per (workload, cluster) pair captures the busiest core.
 */
struct SharedRates {
    ExecutionRates foreground;
    ExecutionRates background;
    /** One entry per cluster, in topology order. */
    StaticVector<ClusterLoad, kMaxCpuClusters> clusters;
};

/** Evaluates the analytic performance model. Stateless and copyable. */
class ExecutionEngine {
  public:
    explicit ExecutionEngine(ExecutionModelParams params = {});

    /**
     * Rates when a foreground workload shares the SoC's clusters with a
     * background load. The background is serviced first, slowest-cluster
     * first (Android's HMP bias for background residents), on
     * @c background_share of each cluster's cores and of the bandwidth, and
     * capped at that share of the compute its threads would get on the
     * whole SoC: the kernel keeps background residents alive regardless of
     * foreground load. The foreground then fills the clusters @p placement
     * admits, fastest-cluster first, on the cores and bandwidth the
     * background leaves. A pool spanning more than one cluster loses
     * @p span_penalty of its compute (migrations, coherence).
     *
     * A one-cluster SoC is the homogeneous case of the same formula; DESIGN.md
     * §15 gives the operation order that keeps it bit-identical to the
     * historical homogeneous model.
     */
    SharedRates ComputeShared(const WorkloadDemand& foreground,
                              const WorkloadDemand& background,
                              const ClusterOperatingPoints& clusters,
                              ThreadPlacement placement, double span_penalty,
                              MegabytesPerSecond bandwidth) const;

    const ExecutionModelParams& params() const { return params_; }

  private:
    ExecutionModelParams params_;
};

}  // namespace aeo

#endif  // AEO_SOC_EXECUTION_ENGINE_H_
