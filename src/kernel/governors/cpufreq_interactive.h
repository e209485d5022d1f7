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

/** Tunables of the interactive governor (AOSP defaults, Nexus 6 values). */
struct InteractiveParams {
    /** Load sampling period. */
    SimTime timer_rate = SimTime::Millis(20);
    /** Load at which the governor jumps to hispeed_freq. */
    double go_hispeed_load = 0.85;
    /** The intermediate "hispeed" frequency (Nexus 6: 1.4976 GHz). */
    Gigahertz hispeed_freq{1.4976};
    /** Wait before climbing above hispeed_freq. */
    SimTime above_hispeed_delay = SimTime::Millis(60);
    /** Minimum time at a raised frequency before scaling back down. */
    SimTime min_sample_time = SimTime::Millis(80);
    /** Load the governor steers toward when picking a target frequency. */
    double target_load = 0.90;
};

/** The Android-default responsive load-tracking governor. */
class CpufreqInteractiveGovernor : public DvfsGovernor {
  public:
    CpufreqInteractiveGovernor(CpufreqPolicy* policy, InteractiveParams params = {});

    std::string name() const override { return "interactive"; }
    void Start() override;
    void Stop() override;

  private:
    void Sample();

    CpufreqPolicy* policy_;
    InteractiveParams params_;
    PeriodicTask timer_;
    std::optional<CpuLoadWindow> window_;
    /** Time of the last frequency raise (for min_sample_time stickiness). */
    SimTime last_raise_time_;
    /** Time the frequency first reached hispeed (for above_hispeed_delay). */
    SimTime hispeed_since_;
    bool at_or_above_hispeed_ = false;
};

/** The governor, with default parameters, on @p policy (a CpufreqPolicy). */
std::unique_ptr<DvfsGovernor> MakeCpufreqInteractiveGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_CPUFREQ_INTERACTIVE_H_
