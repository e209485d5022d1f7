/**
 * @file
 * A model of the Linux perf tool as deployed on the paper's userdebug
 * Android build (§IV-B, §V-A1):
 *
 *  - minimum sampling period 100 ms;
 *  - a computation overhead that scales inversely with the sampling period
 *    (the paper measured 40 % at 100 ms and 4 % at 1 s — perf takes ~1.04 s
 *    to report a 1 s measurement);
 *  - ~15 mW of power overhead while sampling at 1 s;
 *  - sampled GIPS carries measurement noise.
 *
 * The device model queries cpu_overhead_fraction() and power_overhead_mw()
 * so the instrumentation cost is physically charged to the plant, exactly
 * the effect the paper works around by choosing a 2 s control cycle.
 */
#ifndef AEO_KERNEL_PERF_TOOL_H_
#define AEO_KERNEL_PERF_TOOL_H_

#include <functional>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "kernel/pmu.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"

namespace aeo {

/** Injector path guarding PMU counter reads (perf sampling). */
inline constexpr const char kPmuFaultPath[] = "/sys/kernel/pmu/instructions";

/** Configuration of the perf sampler. */
struct PerfToolConfig {
    /** Sampling period; clamped to the 100 ms minimum. */
    SimTime sampling_period = SimTime::FromSeconds(1);
    /** CPU overhead fraction when sampling at 1 s (paper: 4 %). */
    double cpu_overhead_at_1s = 0.04;
    /** Power overhead while sampling at 1 s, mW (paper: 15 mW). */
    double power_overhead_mw = 15.0;
    /** Relative standard deviation of a GIPS sample. */
    double noise_rel_stddev = 0.015;
};

/** One control-cycle measurement window. */
struct PerfWindow {
    /** Average GIPS of the window's samples; 0 when none arrived. */
    double avg_gips = 0.0;
    /** Samples that actually arrived in the window. The controller treats
     * an empty window (all samples dropped) as "no measurement". */
    uint64_t samples = 0;
};

/** Periodic GIPS sampler over the PMU instruction counter. */
class PerfTool {
  public:
    /** Hardware floor on the sampling period (§IV-B). */
    static constexpr SimTime kMinSamplingPeriod = SimTime::Millis(100);

    /**
     * @param sim      Simulation executive; must outlive the tool.
     * @param pmu      Counter source; must outlive the tool.
     * @param rng_seed Seed for measurement noise.
     * @param config   Sampler parameters.
     */
    PerfTool(Simulator* sim, const Pmu* pmu, uint64_t rng_seed,
             PerfToolConfig config = {});

    /** Starts sampling. */
    void Start();

    /** Stops sampling; overheads drop to zero. */
    void Stop();

    /** True while sampling. */
    bool running() const { return task_.running(); }

    /** The effective (clamped) sampling period. */
    SimTime effective_period() const { return period_; }

    /** Fraction of foreground compute consumed by the sampler right now. */
    double cpu_overhead_fraction() const;

    /** Sampler power draw right now, mW. */
    double power_overhead_mw() const;

    /**
     * The samples taken since the previous drain (the controller calls this
     * once per control cycle; the paper's controller likewise averages the
     * ~2 perf readings per cycle). Dropped samples (injected PMU faults)
     * reduce the window's count, possibly to zero — the caller decides how
     * to degrade.
     */
    PerfWindow DrainWindow();

    /** Number of samples taken since Start(). */
    uint64_t sample_count() const { return sample_count_; }

    /** Samples lost to injected PMU read failures. */
    uint64_t dropped_sample_count() const { return dropped_sample_count_; }

    /** Samples served stale counter values (measured as 0 GIPS). */
    uint64_t stale_sample_count() const { return stale_sample_count_; }

    /** Hooks an injector into PMU reads; nullptr disables injection. */
    void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

    /** Registers a hook that brings the PMU up to date before sampling. */
    void SetSyncHook(std::function<void()> hook) { sync_hook_ = std::move(hook); }

    /** Registers a hook run by Start() and Stop() just before the overheads
     * change. */
    void
    SetRunStateHook(std::function<void()> hook)
    {
        run_state_hook_ = std::move(hook);
    }

  private:
    void TakeSample();

    Simulator* sim_;
    const Pmu* pmu_;
    Rng rng_;
    std::function<void()> sync_hook_;
    std::function<void()> run_state_hook_;
    PerfToolConfig config_;
    SimTime period_;
    PeriodicTask task_;
    FaultInjector* injector_ = nullptr;
    double last_instr_reading_ = 0.0;
    SimTime last_reading_time_;
    uint64_t sample_count_ = 0;
    uint64_t dropped_sample_count_ = 0;
    uint64_t stale_sample_count_ = 0;
    double window_sum_ = 0.0;
    uint64_t window_count_ = 0;
};

}  // namespace aeo

#endif  // AEO_KERNEL_PERF_TOOL_H_
