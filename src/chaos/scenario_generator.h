/**
 * @file
 * Deterministic scenario generation: (CampaignSpec, seed) -> ChaosScenario.
 *
 * The generator models how real devices actually fail (correlated, not
 * i.i.d.): faults arrive in bursts whose times follow a seeded Poisson-ish
 * process, a burst may be a *storm* of several distinct classes sharing one
 * window, burst starts can snap to application phase boundaries, and the
 * overall intensity ramps over the campaign to model slow degradation.
 * Identical (spec, seed) pairs produce byte-identical scenarios on every
 * platform — the property the whole chaos pipeline (shrinking, crash
 * bundles, CI smoke) rests on.
 */
#ifndef AEO_CHAOS_SCENARIO_GENERATOR_H_
#define AEO_CHAOS_SCENARIO_GENERATOR_H_

#include <cstdint>

#include "chaos/scenario.h"

namespace aeo::chaos {

/** Generates the scenario @p seed implies under @p spec. Deterministic. */
ChaosScenario GenerateScenario(const CampaignSpec& spec, uint64_t seed);

}  // namespace aeo::chaos

#endif  // AEO_CHAOS_SCENARIO_GENERATOR_H_
