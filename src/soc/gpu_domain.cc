#include "soc/gpu_domain.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace aeo {

GpuDomain::GpuDomain(std::vector<GpuOpp> opps)
    : LevelDomain(static_cast<int>(opps.size())), opps_(std::move(opps))
{
    AEO_ASSERT(!opps_.empty(), "GPU needs at least one operating point");
    for (size_t i = 1; i < opps_.size(); ++i) {
        AEO_ASSERT(opps_[i].mhz > opps_[i - 1].mhz,
                   "GPU clocks not strictly increasing at level %zu", i);
        AEO_ASSERT(opps_[i].voltage >= opps_[i - 1].voltage,
                   "GPU voltage must be non-decreasing at level %zu", i);
    }
}

double
GpuDomain::MhzAt(int level) const
{
    AEO_ASSERT(level >= 0 && level < num_levels(), "GPU level %d out of [0, %d)",
               level, num_levels());
    return opps_[static_cast<size_t>(level)].mhz;
}

Volts
GpuDomain::VoltageAt(int level) const
{
    AEO_ASSERT(level >= 0 && level < num_levels(), "GPU level %d out of [0, %d)",
               level, num_levels());
    return opps_[static_cast<size_t>(level)].voltage;
}

int
GpuDomain::ClosestLevel(double mhz) const
{
    int best = 0;
    double best_dist = std::fabs(opps_[0].mhz - mhz);
    for (int level = 1; level < num_levels(); ++level) {
        const double dist = std::fabs(opps_[static_cast<size_t>(level)].mhz - mhz);
        if (dist < best_dist) {
            best = level;
            best_dist = dist;
        }
    }
    return best;
}

int
GpuDomain::LevelAtOrAbove(double mhz) const
{
    for (int level = 0; level < num_levels(); ++level) {
        if (opps_[static_cast<size_t>(level)].mhz >= mhz) {
            return level;
        }
    }
    return max_level();
}

GpuDomain
MakeAdreno420()
{
    // Adreno 420 operating points (kgsl pwrlevels on apq8084), with a
    // voltage curve analogous to the CPU rail's.
    return GpuDomain({
        {200.0, Volts(0.80)},
        {300.0, Volts(0.85)},
        {389.0, Volts(0.90)},
        {500.0, Volts(0.98)},
        {600.0, Volts(1.07)},
    });
}

}  // namespace aeo
