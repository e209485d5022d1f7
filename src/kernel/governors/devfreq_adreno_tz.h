/**
 * @file
 * The msm-adreno-tz devfreq governor — the Android default for the Adreno
 * GPU: samples the GPU busy fraction and steps the clock one level up or
 * down on busy thresholds.
 */
#ifndef AEO_KERNEL_GOVERNORS_DEVFREQ_ADRENO_TZ_H_
#define AEO_KERNEL_GOVERNORS_DEVFREQ_ADRENO_TZ_H_

#include <memory>
#include <string>

#include "kernel/devfreq.h"
#include "sim/periodic_task.h"

namespace aeo {

/** Busy-threshold GPU governor: steps one level per sample. */
class AdrenoTzGovernor : public DvfsGovernor {
  public:
    /** Busy sampling period. */
    static constexpr SimTime kSamplingPeriod = SimTime::Millis(50);
    /** Busy fraction above which the clock steps up. */
    static constexpr double kUpThreshold = 0.70;
    /** Busy fraction below which the clock steps down. */
    static constexpr double kDownThreshold = 0.30;
    static_assert(kDownThreshold < kUpThreshold, "thresholds out of order");

    explicit AdrenoTzGovernor(GpuFreqPolicy* policy);

    std::string name() const override { return "msm-adreno-tz"; }
    void Start() override;
    void Stop() override;

  private:
    void Sample();

    GpuFreqPolicy* policy_;
    PeriodicTask timer_;
    double last_busy_seconds_ = 0.0;
    SimTime last_elapsed_;
};

/** The governor on @p policy (a GpuFreqPolicy). */
std::unique_ptr<DvfsGovernor> MakeAdrenoTzGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_DEVFREQ_ADRENO_TZ_H_
