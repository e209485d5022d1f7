/**
 * @file
 * The devfreq policies, Linux's DVFS framework for non-CPU devices (§II-A):
 * the memory bus (qcom,cpubw, whose Android default governor is
 * cpubw_hwmon) and the GPU (kgsl, default msm-adreno-tz — and the extended
 * controller's next knob, §VII: "include GPU frequencies ... into the
 * control system framework"). Both are the DvfsPolicy framework with a
 * typed table, a meter and a codec.
 */
#ifndef AEO_KERNEL_DEVFREQ_H_
#define AEO_KERNEL_DEVFREQ_H_

#include <string>

#include "kernel/dvfs_policy.h"
#include "kernel/meters.h"
#include "soc/gpu_domain.h"
#include "soc/memory_bus.h"

namespace aeo {

/** The memory-bus frequency domain. */
class DevfreqPolicy : public DvfsPolicy {
  public:
    /**
     * @param sim           Simulation executive; must outlive the policy.
     * @param bus           The managed bus; must outlive the policy.
     * @param traffic_meter Bus-traffic accounting the hwmon governor samples.
     * @param sysfs         Virtual sysfs for the policy files.
     * @param sysfs_root    Directory, e.g. "/sys/class/devfreq/qcom,cpubw".
     */
    DevfreqPolicy(Simulator* sim, MemoryBus* bus,
                  const BusTrafficMeter* traffic_meter, Sysfs* sysfs,
                  std::string sysfs_root);

    /** The bandwidth table. */
    const BandwidthTable& table() const { return bus_->table(); }

    /** Traffic meter for hwmon-style sampling. */
    const BusTrafficMeter* traffic_meter() const { return traffic_meter_; }

    /** The devfreq files' codec: MB/s. */
    double ValueOfLevel(int level) const override;
    int LevelOfValue(long long mbps) const override;

  private:
    MemoryBus* bus_;
    const BusTrafficMeter* traffic_meter_;
};

/**
 * The GPU frequency domain. Its kgsl directory has only governor,
 * cur_freq, available_frequencies and userspace/set_freq: no limit files
 * and no governor list, so its limits stay at the whole table.
 */
class GpuFreqPolicy : public DvfsPolicy {
  public:
    GpuFreqPolicy(Simulator* sim, GpuDomain* gpu, const GpuBusyMeter* meter,
                  Sysfs* sysfs, std::string sysfs_root);

    /** Busy-time meter for load sampling. */
    const GpuBusyMeter* busy_meter() const { return meter_; }

    /** The kgsl files' codec: MHz. */
    double ValueOfLevel(int level) const override;
    int LevelOfValue(long long mhz) const override;

  private:
    const GpuDomain* gpu_;
    const GpuBusyMeter* meter_;
};

}  // namespace aeo

#endif  // AEO_KERNEL_DEVFREQ_H_
