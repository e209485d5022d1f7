#include "power/energy_meter.h"

#include "common/logging.h"

namespace aeo {

Milliwatts
EnergyMeter::AveragePower() const
{
    if (elapsed_ == SimTime::Zero()) {
        return Milliwatts(0.0);
    }
    return ::aeo::AveragePower(energy_, elapsed_.ToSeconds());
}

void
EnergyMeter::Reset()
{
    energy_ = Joules(0.0);
    elapsed_ = SimTime::Zero();
}

}  // namespace aeo
