/**
 * @file
 * The cpubw_hwmon devfreq governor — the Android default for the CPU-to-
 * memory bus the paper compares against (§II-A, §V-A, Fig. 5).
 *
 * The real governor watches a bus hardware monitor: when measured traffic
 * approaches the provisioned bandwidth it immediately raises the bandwidth
 * (with headroom); when traffic falls it lowers it slowly, using an
 * exponential back-off so that bursty clients do not see a slow bus. The
 * paper observes that this asymmetry keeps bandwidth "higher than necessary
 * for over 60 % of the application runtime".
 */
#ifndef AEO_KERNEL_GOVERNORS_DEVFREQ_CPUBW_HWMON_H_
#define AEO_KERNEL_GOVERNORS_DEVFREQ_CPUBW_HWMON_H_

#include <memory>
#include <optional>
#include <string>

#include "kernel/devfreq.h"
#include "sim/periodic_task.h"

namespace aeo {

/** Traffic-monitoring governor with fast-up / exponential-back-off-down. */
class DevfreqCpubwHwmonGovernor : public DvfsGovernor {
  public:
    /** Traffic sampling period. */
    static constexpr SimTime kSamplingPeriod = SimTime::Millis(50);
    /**
     * Target utilization of provisioned bandwidth (the driver's io_percent
     * knob, ~34 % on msm8084): the governor provisions measured/target and
     * raises as soon as utilization exceeds it.
     */
    static constexpr double kTargetUtilization = 0.35;
    /**
     * Consecutive low samples required before the first down-step; the
     * requirement doubles after every down-step (exponential back-off) and
     * resets on any up-step.
     */
    static constexpr int kInitialDownCount = 2;
    /** Ceiling on the back-off requirement. */
    static constexpr int kMaxDownCount = 32;
    static_assert(kTargetUtilization > 0.0 && kTargetUtilization <= 1.0,
                  "target utilization out of (0, 1]");
    static_assert(kInitialDownCount >= 1, "down count must be >= 1");
    static_assert(kMaxDownCount >= kInitialDownCount,
                  "back-off ceiling below the first requirement");

    explicit DevfreqCpubwHwmonGovernor(DevfreqPolicy* policy);

    std::string name() const override { return "cpubw_hwmon"; }
    void Start() override;
    void Stop() override;

  private:
    void Sample();

    DevfreqPolicy* policy_;
    PeriodicTask timer_;
    std::optional<BusTrafficWindow> window_;
    int low_samples_ = 0;
    int required_low_samples_ = 0;
};

/** The governor on @p policy (a DevfreqPolicy). */
std::unique_ptr<DvfsGovernor> MakeDevfreqCpubwHwmonGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_DEVFREQ_CPUBW_HWMON_H_
