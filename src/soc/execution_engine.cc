#include "soc/execution_engine.h"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "common/logging.h"

namespace aeo {

namespace {

using PerCluster = std::array<double, kMaxCpuClusters>;

/** A workload's cores over the clusters and the compute they give it. */
struct Pool {
    PerCluster cores{};
    double total_cores = 0.0;
    /** Σ_i (eq_i·ipc)·cores_i, less the span penalty: instructions per ns. */
    double compute = 0.0;
};

/** Whether @p placement lets the foreground run on cluster @p index: the
 * primary is the big cluster, the last one the LITTLE cluster. */
bool
Admits(ThreadPlacement placement, size_t index, size_t num_clusters)
{
    switch (placement) {
      case ThreadPlacement::kBigOnly:
        return index == 0;
      case ThreadPlacement::kLittleOnly:
        return index + 1 == num_clusters;
      case ThreadPlacement::kBoth:
        return true;
    }
    AEO_PANIC("unreachable thread placement");
}

/**
 * Places @p parallelism threads on the first @p n clusters, each holding at
 * most @p available[i] of cluster i's cores, fastest cluster first or (for
 * the background) slowest first. @p eq[i] is cluster i's per-core speed,
 * f_i·perf_scale_i. The compute term follows the operation order DESIGN.md
 * §15 fixes.
 */
inline Pool
AssignPool(double parallelism, double ipc, const PerCluster& eq, size_t n,
           const PerCluster& available, bool fastest_first, double span_penalty)
{
    Pool pool;
    double remaining = parallelism;
    for (size_t k = 0; k < n; ++k) {
        const size_t i = fastest_first ? k : n - 1 - k;
        pool.cores[i] = std::min(remaining, available[i]);
        remaining -= pool.cores[i];
    }
    int spanned = 0;
    for (size_t i = 0; i < n; ++i) {
        pool.compute += (eq[i] * ipc) * pool.cores[i];
        pool.total_cores += pool.cores[i];
        spanned += pool.cores[i] > 0.0 ? 1 : 0;
    }
    if (spanned > 1) {
        pool.compute *= 1.0 - span_penalty;
    }
    return pool;
}

/** Serial compute + memory latency of @p demand on @p pool. */
inline ExecutionRates
RatesOnPool(const WorkloadDemand& demand, const Pool& pool, double effective_gbps,
            double prefetch_gbps_per_busy_core)
{
    ExecutionRates rates;
    if (pool.total_cores <= 0.0 || pool.compute <= 0.0 || effective_gbps <= 0.0) {
        return rates;
    }
    // Per-instruction time in nanoseconds: compute + memory, serialized.
    const double t_cpu_ns = 1.0 / pool.compute;
    const double t_mem_ns = demand.mem_bytes_per_instr / effective_gbps;
    const double capacity_gips = 1.0 / (t_cpu_ns + t_mem_ns);

    rates.capacity_gips = capacity_gips;
    rates.gips = std::min(demand.demand_gips, capacity_gips);
    // Memory-stall time occupies the issuing core, so busy time is the full
    // per-instruction latency (matches how Linux accounts CPU load).
    rates.busy_cores = rates.gips / capacity_gips * pool.total_cores;
    rates.mem_gbps = rates.gips * demand.mem_bytes_per_instr +
                     rates.busy_cores * prefetch_gbps_per_busy_core;
    return rates;
}

/** Utilization of each core a workload holds (1.0 when compute-saturated). */
double
CoreLoad(const ExecutionRates& rates)
{
    return rates.capacity_gips > 0.0
               ? std::min(1.0, rates.gips / rates.capacity_gips)
               : 0.0;
}

/** Cluster i's share of @p busy_cores, split by the cores @p pool holds. */
double
BusyOn(const Pool& pool, size_t i, double busy_cores)
{
    return pool.cores[i] > 0.0 ? busy_cores * (pool.cores[i] / pool.total_cores)
                               : 0.0;
}

}  // namespace

ExecutionEngine::ExecutionEngine(ExecutionModelParams params) : params_(params)
{
    AEO_ASSERT(params_.bandwidth_efficiency > 0.0 && params_.bandwidth_efficiency <= 1.0,
               "bandwidth efficiency %f out of (0, 1]", params_.bandwidth_efficiency);
    AEO_ASSERT(params_.background_share >= 0.0 && params_.background_share < 1.0,
               "background share %f out of [0, 1)", params_.background_share);
}

SharedRates
ExecutionEngine::ComputeShared(const WorkloadDemand& foreground,
                               const WorkloadDemand& background,
                               const ClusterOperatingPoints& clusters,
                               ThreadPlacement placement, double span_penalty,
                               MegabytesPerSecond bandwidth) const
{
    AEO_ASSERT(!clusters.empty(), "no CPU clusters");
    for (const WorkloadDemand* demand : {&foreground, &background}) {
        AEO_ASSERT(demand->ipc > 0.0, "ipc must be positive");
        AEO_ASSERT(demand->parallelism > 0.0, "parallelism must be positive");
        AEO_ASSERT(demand->mem_bytes_per_instr >= 0.0, "negative memory intensity");
    }
    const size_t n = clusters.size();
    const double share = params_.background_share;
    const double prefetch = params_.prefetch_gbps_per_busy_core;
    const double total_gbps =
        bandwidth.value() / 1000.0 * params_.bandwidth_efficiency;

    PerCluster eq{};
    PerCluster online{};
    PerCluster bg_available{};
    for (size_t i = 0; i < n; ++i) {
        eq[i] = clusters[i].frequency.value() * clusters[i].perf_scale;
        online[i] = static_cast<double>(clusters[i].online_cores);
        bg_available[i] = online[i] * share;
    }

    WorkloadDemand bg = background;
    const Pool bg_pool = AssignPool(bg.parallelism, bg.ipc, eq, n, bg_available,
                                    /*fastest_first=*/false, span_penalty);
    const Pool bg_cap_pool = AssignPool(bg.parallelism, bg.ipc, eq, n, online,
                                        /*fastest_first=*/false, span_penalty);
    bg.demand_gips = std::min(bg.demand_gips, share * bg_cap_pool.compute);
    const ExecutionRates bg_rates =
        RatesOnPool(bg, bg_pool, total_gbps * share, prefetch);

    // The foreground sees the admitted cores the background leaves; a fully
    // occupied pool still yields a residual quarter core on the first one.
    PerCluster bg_busy{};
    PerCluster fg_available{};
    double fg_total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        bg_busy[i] = BusyOn(bg_pool, i, bg_rates.busy_cores);
        fg_available[i] = Admits(placement, i, n)
                              ? std::max(0.0, online[i] - bg_busy[i])
                              : 0.0;
        fg_total += fg_available[i];
    }
    if (fg_total < 0.25) {
        fg_available[placement == ThreadPlacement::kLittleOnly ? n - 1 : 0] = 0.25;
    }
    const Pool fg_pool =
        AssignPool(foreground.parallelism, foreground.ipc, eq, n, fg_available,
                   /*fastest_first=*/true, span_penalty);
    const double remaining_gbps = std::max(1e-9, total_gbps - bg_rates.mem_gbps);
    const ExecutionRates fg_rates =
        RatesOnPool(foreground, fg_pool, remaining_gbps, prefetch);

    const double fg_load = CoreLoad(fg_rates);
    const double bg_load = CoreLoad(bg_rates);
    StaticVector<ClusterLoad, kMaxCpuClusters> loads;
    for (size_t i = 0; i < n; ++i) {
        ClusterLoad load;
        load.busy_cores = bg_busy[i] + BusyOn(fg_pool, i, fg_rates.busy_cores);
        load.max_core_load = std::max(fg_pool.cores[i] > 0.0 ? fg_load : 0.0,
                                      bg_pool.cores[i] > 0.0 ? bg_load : 0.0);
        loads.push_back(load);
    }
    return SharedRates{fg_rates, bg_rates, loads};
}

}  // namespace aeo
