/**
 * @file
 * The interactive cpufreq governor — the Android default the paper measures
 * against (§II-A, Figs. 1 & 4).
 *
 * Behavioural summary of the AOSP implementation this model follows:
 *  - load is sampled every timer_rate (20 ms);
 *  - when load ≥ go_hispeed_load the frequency jumps at least to
 *    hispeed_freq (1.4976 GHz = level 10 on the Nexus 6 — which is exactly
 *    why the paper's Fig. 4 shows 12.7–27.9 % residency at level 10);
 *  - further increases above hispeed_freq are held off for
 *    above_hispeed_delay;
 *  - otherwise the target is chosen so projected load ≈ target_load;
 *  - a frequency raise is "sticky" for min_sample_time before the governor
 *    may scale back down — responsiveness first, power second.
 */
#ifndef AEO_KERNEL_GOVERNORS_CPUFREQ_INTERACTIVE_H_
#define AEO_KERNEL_GOVERNORS_CPUFREQ_INTERACTIVE_H_

#include <memory>
#include <optional>
#include <string>

#include "kernel/cpufreq.h"
#include "sim/periodic_task.h"

namespace aeo {

/**
 * The Android-default responsive load-tracking governor, at its AOSP
 * tunables for the Nexus 6.
 */
class CpufreqInteractiveGovernor : public DvfsGovernor {
  public:
    /** Load sampling period. */
    static constexpr SimTime kTimerRate = SimTime::Millis(20);
    /** Load at which the governor jumps to kHispeedFreq. */
    static constexpr double kGoHispeedLoad = 0.85;
    /** The intermediate "hispeed" frequency (Nexus 6: 1.4976 GHz). */
    static constexpr Gigahertz kHispeedFreq{1.4976};
    /** Wait before climbing above kHispeedFreq. */
    static constexpr SimTime kAboveHispeedDelay = SimTime::Millis(60);
    /** Minimum time at a raised frequency before scaling back down. */
    static constexpr SimTime kMinSampleTime = SimTime::Millis(80);
    /** Load the governor steers toward when picking a target frequency. */
    static constexpr double kTargetLoad = 0.90;
    static_assert(kGoHispeedLoad > 0.0 && kGoHispeedLoad <= 1.0,
                  "kGoHispeedLoad out of (0, 1]");
    static_assert(kTargetLoad > 0.0 && kTargetLoad <= 1.0,
                  "kTargetLoad out of (0, 1]");

    explicit CpufreqInteractiveGovernor(CpufreqPolicy* policy);

    std::string name() const override { return "interactive"; }
    void Start() override;
    void Stop() override;

  private:
    void Sample();

    CpufreqPolicy* policy_;
    PeriodicTask timer_;
    std::optional<CpuLoadWindow> window_;
    /** Time of the last frequency raise (for kMinSampleTime stickiness). */
    SimTime last_raise_time_;
    /** Time the frequency first reached hispeed (for kAboveHispeedDelay). */
    SimTime hispeed_since_;
    bool at_or_above_hispeed_ = false;
};

/** The governor on @p policy (a CpufreqPolicy). */
std::unique_ptr<DvfsGovernor> MakeCpufreqInteractiveGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_CPUFREQ_INTERACTIVE_H_
