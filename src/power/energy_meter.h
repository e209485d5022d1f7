/**
 * @file
 * Exact energy integration. The device calls Accumulate() whenever any
 * state affecting power changes, so energy is the exact integral of the
 * piecewise-constant power signal (no sampling error).
 */
#ifndef AEO_POWER_ENERGY_METER_H_
#define AEO_POWER_ENERGY_METER_H_

#include "common/logging.h"
#include "common/units.h"
#include "sim/time.h"

namespace aeo {

/** Accumulates energy as Σ power·Δt over piecewise-constant segments. */
class EnergyMeter {
  public:
    EnergyMeter() = default;

    /** Adds a segment of @p duration at constant @p power. */
    void
    Accumulate(Milliwatts power, SimTime duration)
    {
        AEO_ASSERT(duration >= SimTime::Zero(), "negative accumulation interval");
        AEO_ASSERT(power.value() >= 0.0, "negative power %f mW", power.value());
        energy_ += power * duration.ToSeconds();
        elapsed_ += duration;
    }

    /** Total accumulated energy. */
    Joules energy() const { return energy_; }

    /** Total accumulated time. */
    SimTime elapsed() const { return elapsed_; }

    /** Average power over the accumulated time (0 if no time elapsed). */
    Milliwatts AveragePower() const;

    /** Resets to zero. */
    void Reset();

  private:
    Joules energy_;
    SimTime elapsed_;
};

}  // namespace aeo

#endif  // AEO_POWER_ENERGY_METER_H_
