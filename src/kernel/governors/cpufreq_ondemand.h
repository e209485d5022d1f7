/**
 * @file
 * The ondemand cpufreq governor (Pallipadi & Starikovskiy, OLS 2006; §II-A
 * of the paper): samples CPU load at a fixed rate; above the up-threshold it
 * jumps straight to the maximum frequency, below it the frequency is lowered
 * gradually to the lowest level that would keep load under the threshold.
 */
#ifndef AEO_KERNEL_GOVERNORS_CPUFREQ_ONDEMAND_H_
#define AEO_KERNEL_GOVERNORS_CPUFREQ_ONDEMAND_H_

#include <memory>
#include <optional>
#include <string>

#include "kernel/cpufreq.h"
#include "sim/periodic_task.h"

namespace aeo {

/** Load-threshold governor that ramps to max and decays proportionally. */
class CpufreqOndemandGovernor : public DvfsGovernor {
  public:
    /** Load sampling period. */
    static constexpr SimTime kSamplingPeriod = SimTime::Millis(50);
    /** Load above which the governor jumps to the maximum frequency. */
    static constexpr double kUpThreshold = 0.80;
    /**
     * Hysteresis margin: when scaling down, target a frequency that keeps
     * projected load this far below the up-threshold.
     */
    static constexpr double kDownDifferential = 0.10;
    static_assert(kUpThreshold > 0.0 && kUpThreshold <= 1.0,
                  "kUpThreshold out of (0, 1]");
    static_assert(kUpThreshold - kDownDifferential > 0.0,
                  "down differential leaves no target load");

    explicit CpufreqOndemandGovernor(CpufreqPolicy* policy);

    std::string name() const override { return "ondemand"; }
    void Start() override;
    void Stop() override;

  private:
    void Sample();

    CpufreqPolicy* policy_;
    PeriodicTask timer_;
    std::optional<CpuLoadWindow> window_;
};

/** The governor on @p policy (a CpufreqPolicy). */
std::unique_ptr<DvfsGovernor> MakeCpufreqOndemandGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_CPUFREQ_ONDEMAND_H_
