/**
 * @file
 * The CPU cluster model: four Krait-like cores sharing one clock domain.
 *
 * The paper sets all four cores to the same frequency (§IV-A), which matches
 * the Snapdragon 805's synchronous cluster, so the cluster is the unit of
 * DVFS here. The cluster records frequency-switch statistics needed by the
 * overhead analysis (§V-A1).
 */
#ifndef AEO_SOC_CPU_CLUSTER_H_
#define AEO_SOC_CPU_CLUSTER_H_

#include "soc/frequency_table.h"
#include "soc/level_domain.h"

namespace aeo {

/** A synchronous multi-core CPU cluster with discrete frequency levels. */
class CpuCluster : public LevelDomain {
  public:
    /**
     * @param table     The OPP table; copied in.
     * @param num_cores Number of cores sharing the clock.
     */
    CpuCluster(FrequencyTable table, int num_cores);

    /** The OPP table. */
    const FrequencyTable& table() const { return table_; }

    /** Number of cores in the cluster. */
    int num_cores() const { return num_cores_; }

    /** Number of currently online cores (hotplug can reduce this). */
    int online_cores() const { return online_cores_; }

    /** Current clock frequency. */
    Gigahertz frequency() const { return table_.FrequencyAt(level()); }

    /** Current rail voltage. */
    Volts voltage() const { return table_.VoltageAt(level()); }

    /** Sets the number of online cores (1..num_cores); the change
     * listeners see it like a level change. */
    void SetOnlineCores(int cores);

  private:
    FrequencyTable table_;
    int num_cores_;
    int online_cores_;
};

}  // namespace aeo

#endif  // AEO_SOC_CPU_CLUSTER_H_
