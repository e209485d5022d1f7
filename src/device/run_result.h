/**
 * @file
 * Metrics collected from one device run — the quantities the paper's
 * evaluation reports: energy, average power, runtime, GIPS, and the
 * CPU-frequency / memory-bandwidth residency histograms of Figs. 1/4/5.
 */
#ifndef AEO_DEVICE_RUN_RESULT_H_
#define AEO_DEVICE_RUN_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace aeo {

/** Outcome of one application run on the device. */
struct RunResult {
    std::string app_name;
    std::string load_name;
    std::string policy_name;

    /** Exact integrated device energy, J. */
    double energy_j = 0.0;
    /** Energy as the Monsoon monitor measured it, J. */
    double measured_energy_j = 0.0;
    /** Exact average device power. */
    Milliwatts avg_power_mw;
    /** Average power as the Monsoon monitor measured it. */
    Milliwatts measured_avg_power_mw;

    /** Wall-clock duration of the run, s. */
    double duration_s = 0.0;
    /** Average foreground performance, GIPS. */
    double avg_gips = 0.0;
    /** Foreground instructions retired, units of 1e9. */
    double executed_gi = 0.0;
    /** True when a batch app ran to completion. */
    bool app_finished = false;

    /** Fraction of time per CPU frequency level (Figs. 1 & 4). */
    std::vector<double> cpu_residency;
    /** Fraction of time per bandwidth level (Fig. 5). */
    std::vector<double> bw_residency;
    /** Fraction of time per GPU level (§VII extension). */
    std::vector<double> gpu_residency;
    /** Fraction of time per LITTLE-cluster frequency level; empty on
     * homogeneous (single-cluster) builds. */
    std::vector<double> little_residency;

    /** DVFS transition counts (overhead analysis, §V-A1). */
    uint64_t cpu_transitions = 0;
    uint64_t bw_transitions = 0;
    /** LITTLE-cluster DVFS transitions; 0 on homogeneous builds. */
    uint64_t little_transitions = 0;

    /** Final /proc/loadavg value (§V-C). */
    double loadavg = 0.0;

    /** Residency of CPU cluster @p index: cpu_residency for the primary,
     * else little_residency. */
    std::vector<double>&
    cluster_residency(size_t index)
    {
        return index == 0 ? cpu_residency : little_residency;
    }

    /** DVFS transitions of CPU cluster @p index (see cluster_residency). */
    uint64_t&
    cluster_transitions(size_t index)
    {
        return index == 0 ? cpu_transitions : little_transitions;
    }

    /** Performance change of this run vs @p baseline, percent (+ = faster).
     *
     * Batch runs compare execution time (the paper's "deadline critical"
     * apps); paced runs compare average GIPS. */
    double PerformanceDeltaPercent(const RunResult& baseline) const;

    /** Energy savings of this run vs @p baseline, percent (+ = saves). */
    double EnergySavingsPercent(const RunResult& baseline) const;

    /** One-line human-readable summary. */
    std::string Summary() const;
};

}  // namespace aeo

#endif  // AEO_DEVICE_RUN_RESULT_H_
