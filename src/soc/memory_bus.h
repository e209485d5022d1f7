/**
 * @file
 * The memory-bus model: a DVFS-capable interconnect with discrete bandwidth
 * levels (the devfreq device the paper's cpubw_hwmon governor manages).
 */
#ifndef AEO_SOC_MEMORY_BUS_H_
#define AEO_SOC_MEMORY_BUS_H_

#include <utility>

#include "soc/bandwidth_table.h"
#include "soc/level_domain.h"

namespace aeo {

/** A memory bus whose provisioned bandwidth is selected from a table. */
class MemoryBus : public LevelDomain {
  public:
    /** @param table The bandwidth table; copied in. */
    explicit MemoryBus(BandwidthTable table)
        : LevelDomain(table.size()), table_(std::move(table))
    {
    }

    /** The bandwidth table. */
    const BandwidthTable& table() const { return table_; }

    /** Currently provisioned bandwidth. */
    MegabytesPerSecond bandwidth() const { return table_.BandwidthAt(level()); }

  private:
    BandwidthTable table_;
};

}  // namespace aeo

#endif  // AEO_SOC_MEMORY_BUS_H_
