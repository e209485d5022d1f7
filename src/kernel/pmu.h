/**
 * @file
 * The performance monitoring unit (PMU): cumulative hardware counters for
 * retired instructions, cycles and bus traffic. The paper derives its GIPS
 * performance metric from the PMU instruction counter via perf (§III-B2),
 * avoiding any application source-code modification.
 */
#ifndef AEO_KERNEL_PMU_H_
#define AEO_KERNEL_PMU_H_

#include "common/logging.h"
#include "sim/time.h"

namespace aeo {

/** Cumulative hardware event counters. */
class Pmu {
  public:
    Pmu() = default;

    /**
     * Advances the counters over a segment of wall time.
     *
     * @param gips       Foreground instruction rate during the segment.
     * @param freq_ghz   Cluster frequency (for the cycle counter).
     * @param busy_cores Busy core-seconds per second.
     * @param gbps       Bus traffic.
     * @param dt         Segment duration.
     */
    void
    Advance(double gips, double freq_ghz, double busy_cores, double gbps, SimTime dt)
    {
        AEO_ASSERT(
            gips >= 0.0 && freq_ghz >= 0.0 && busy_cores >= 0.0 && gbps >= 0.0,
            "negative PMU rates");
        AEO_ASSERT(dt >= SimTime::Zero(), "negative PMU interval");
        const double seconds = dt.seconds();
        giga_instructions_ += gips * seconds;
        giga_cycles_ += freq_ghz * busy_cores * seconds;
        traffic_gb_ += gbps * seconds;
    }

    /** Retired foreground instructions, in units of 1e9. */
    double giga_instructions() const { return giga_instructions_; }

    /** Elapsed busy cycles across cores, in units of 1e9. */
    double giga_cycles() const { return giga_cycles_; }

    /** Total bus traffic observed, GB. */
    double traffic_gb() const { return traffic_gb_; }

  private:
    double giga_instructions_ = 0.0;
    double giga_cycles_ = 0.0;
    double traffic_gb_ = 0.0;
};

}  // namespace aeo

#endif  // AEO_KERNEL_PMU_H_
