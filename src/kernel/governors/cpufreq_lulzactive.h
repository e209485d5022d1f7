/**
 * @file
 * The lulzactive cpufreq governor — the community "smartass lineage"
 * governor popular on Exynos/Tegra custom kernels, included as a further
 * baseline for the governor comparisons.
 *
 * Behavioural summary of the version 2 implementation this model follows:
 *  - load is sampled every timer_rate;
 *  - when load ≥ inc_cpu_load the frequency climbs by pump_up_step table
 *    levels — a fixed ramp stage instead of interactive's proportional
 *    target — but no sooner than up_sample_time after the last change;
 *  - otherwise it descends by pump_down_step levels, gated by the longer
 *    down_sample_time dwell;
 *  - there is no hispeed jump: bursts ramp through the stages, which is
 *    exactly why lulzactive trades some responsiveness for fewer spurious
 *    residencies at the top of the table.
 */
#ifndef AEO_KERNEL_GOVERNORS_CPUFREQ_LULZACTIVE_H_
#define AEO_KERNEL_GOVERNORS_CPUFREQ_LULZACTIVE_H_

#include <memory>
#include <optional>
#include <string>

#include "kernel/cpufreq.h"
#include "sim/periodic_task.h"

namespace aeo {

/** Tunables of the lulzactive governor (v2 defaults). */
struct LulzactiveParams {
    /** Load sampling period. */
    SimTime timer_rate = SimTime::Millis(10);
    /** Load at or above which the governor ramps up. */
    double inc_cpu_load = 0.70;
    /** Table levels climbed per up decision (the "pump" ramp stage). */
    int pump_up_step = 2;
    /** Table levels descended per down decision. */
    int pump_down_step = 1;
    /** Minimum dwell after any change before ramping up again. */
    SimTime up_sample_time = SimTime::Millis(20);
    /** Minimum dwell after any change before stepping down. */
    SimTime down_sample_time = SimTime::Millis(40);
};

/** Fixed-ramp load-threshold governor. */
class CpufreqLulzactiveGovernor : public DvfsGovernor {
  public:
    CpufreqLulzactiveGovernor(CpufreqPolicy* policy, LulzactiveParams params = {});

    std::string name() const override { return "lulzactive"; }
    void Start() override;
    void Stop() override;

  private:
    void Sample();

    CpufreqPolicy* policy_;
    LulzactiveParams params_;
    PeriodicTask timer_;
    std::optional<CpuLoadWindow> window_;
    /** Time of the last accepted frequency change (dwell gates). */
    SimTime last_change_time_;
};

/** The governor, with default parameters, on @p policy (a CpufreqPolicy). */
std::unique_ptr<DvfsGovernor> MakeCpufreqLulzactiveGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_CPUFREQ_LULZACTIVE_H_
