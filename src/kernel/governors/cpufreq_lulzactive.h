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

/** Fixed-ramp load-threshold governor, at its v2 defaults. */
class CpufreqLulzactiveGovernor : public DvfsGovernor {
  public:
    /** Load sampling period. */
    static constexpr SimTime kTimerRate = SimTime::Millis(10);
    /** Load at or above which the governor ramps up. */
    static constexpr double kIncCpuLoad = 0.70;
    /** Table levels climbed per up decision (the "pump" ramp stage). */
    static constexpr int kPumpUpStep = 2;
    /** Table levels descended per down decision. */
    static constexpr int kPumpDownStep = 1;
    /** Minimum dwell after any change before ramping up again. */
    static constexpr SimTime kUpSampleTime = SimTime::Millis(20);
    /** Minimum dwell after any change before stepping down. */
    static constexpr SimTime kDownSampleTime = SimTime::Millis(40);
    static_assert(kIncCpuLoad > 0.0 && kIncCpuLoad <= 1.0,
                  "kIncCpuLoad out of (0, 1]");
    static_assert(kPumpUpStep >= 1 && kPumpDownStep >= 1,
                  "pump steps must be at least one level");

    explicit CpufreqLulzactiveGovernor(CpufreqPolicy* policy);

    std::string name() const override { return "lulzactive"; }
    void Start() override;
    void Stop() override;

  private:
    void Sample();

    CpufreqPolicy* policy_;
    PeriodicTask timer_;
    std::optional<CpuLoadWindow> window_;
    /** Time of the last accepted frequency change (dwell gates). */
    SimTime last_change_time_;
};

/** The governor on @p policy (a CpufreqPolicy). */
std::unique_ptr<DvfsGovernor> MakeCpufreqLulzactiveGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_CPUFREQ_LULZACTIVE_H_
