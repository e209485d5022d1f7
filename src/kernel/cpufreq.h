/**
 * @file
 * The cpufreq policy of one CPU frequency domain (the Nexus 6 has a single
 * 4-core cluster): the DvfsPolicy framework over a CpuCluster, with the
 * cluster's OPP table, its busy-time meter and the kHz codec of the
 * scaling_* files (§II-A).
 */
#ifndef AEO_KERNEL_CPUFREQ_H_
#define AEO_KERNEL_CPUFREQ_H_

#include <string>

#include "kernel/dvfs_policy.h"
#include "kernel/meters.h"
#include "soc/cpu_cluster.h"

namespace aeo {

/** One CPU frequency domain. */
class CpufreqPolicy : public DvfsPolicy {
  public:
    /**
     * @param sim        Simulation executive; must outlive the policy.
     * @param cluster    The managed cluster; must outlive the policy.
     * @param load_meter Busy-time accounting the governors sample.
     * @param sysfs      Virtual sysfs in which to expose the policy files.
     * @param sysfs_root Directory for this policy's files, e.g.
     *                   "/sys/devices/system/cpu/cpu0/cpufreq".
     */
    CpufreqPolicy(Simulator* sim, CpuCluster* cluster,
                  const CpuLoadMeter* load_meter, Sysfs* sysfs,
                  std::string sysfs_root);

    /** Requests the lowest level whose frequency is ≥ @p freq. */
    void RequestFrequencyAtOrAbove(Gigahertz freq);

    /** The cluster's OPP table. */
    const FrequencyTable& table() const { return cluster_->table(); }

    /** Busy-time meter for load sampling. */
    const CpuLoadMeter* load_meter() const { return load_meter_; }

    /** The scaling_* files' codec: kHz. */
    double ValueOfLevel(int level) const override;
    int LevelOfValue(long long khz) const override;

  private:
    CpuCluster* cluster_;
    const CpuLoadMeter* load_meter_;
};

}  // namespace aeo

#endif  // AEO_KERNEL_CPUFREQ_H_
