/**
 * @file
 * The GPU frequency domain (Adreno 420 on the Nexus 6).
 *
 * §VII of the paper names GPU frequency as the first extension target for
 * the control framework ("Our next steps are to include GPU frequencies,
 * network packet rate, etc."). The GPU renders in proportion to the
 * application's progress (render work per giga-instruction of app work);
 * when the GPU cannot keep up it becomes a co-bottleneck and throttles the
 * application's effective rate.
 */
#ifndef AEO_SOC_GPU_DOMAIN_H_
#define AEO_SOC_GPU_DOMAIN_H_

#include <vector>

#include "common/units.h"
#include "soc/level_domain.h"

namespace aeo {

/** One GPU operating point. */
struct GpuOpp {
    /** Core clock, MHz. */
    double mhz;
    /** Rail voltage. */
    Volts voltage;
};

/** A DVFS-capable GPU with discrete frequency levels. */
class GpuDomain : public LevelDomain {
  public:
    /** @param opps Operating points in strictly increasing frequency. */
    explicit GpuDomain(std::vector<GpuOpp> opps);

    /** Clock at @p level, MHz. */
    double MhzAt(int level) const;

    /** Voltage at @p level. */
    Volts VoltageAt(int level) const;

    /** Current clock, MHz. */
    double mhz() const { return MhzAt(level()); }

    /** Current voltage. */
    Volts voltage() const { return VoltageAt(level()); }

    /**
     * Render capacity at @p level in abstract render-units per second
     * (1 unit/s per MHz: capacity is frequency-proportional).
     */
    double CapacityAt(int level) const { return MhzAt(level); }

    /** The level whose clock is closest to @p mhz. */
    int ClosestLevel(double mhz) const;

    /** Smallest level with clock ≥ @p mhz; max_level() if none. */
    int LevelAtOrAbove(double mhz) const;

  private:
    std::vector<GpuOpp> opps_;
};

/** Builds the Adreno 420 operating-point table. */
GpuDomain MakeAdreno420();

/** Number of Adreno 420 frequency levels. */
inline constexpr int kAdreno420Levels = 5;

}  // namespace aeo

#endif  // AEO_SOC_GPU_DOMAIN_H_
