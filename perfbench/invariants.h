/**
 * @file
 * The benchmark's correctness oracle. Two kinds of check, both independent
 * of any committed snapshot so they hold at every seed:
 *
 *  - physical invariants of each device run: residency fractions sum to 1
 *    per domain, every run does positive work, batch apps finish before
 *    their completion cap;
 *  - exact fingerprints of every simulated output, so two runs of the same
 *    inputs — through different entry points and worker counts, traced or
 *    not — can be compared bit for bit.
 *
 * Monsoon measurement error is deliberately not a check: the meter's bias is
 * a property of the measurement model, reported as power.meter_err_pct.
 */
#ifndef PERFBENCH_INVARIANTS_H_
#define PERFBENCH_INVARIANTS_H_

#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "core/profile_table.h"
#include "core/scenarios.h"
#include "device/run_result.h"

namespace perfbench {

/** Largest accepted |Σ residency − 1| for one domain. */
inline constexpr double kResidencyTolerance = 1e-9;

/** Violations of the run invariants by @p run of @p scenario's app; empty
 * when the run is valid. */
std::vector<std::string> CheckRunResult(const aeo::RunResult& run,
                                        const aeo::AppScenario& scenario);

/** Exact text image of every simulated field (hex floats). */
std::string Fingerprint(const aeo::RunResult& run);
std::string Fingerprint(const aeo::ProfileTable& table);
std::string Fingerprint(const aeo::chaos::CampaignReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_INVARIANTS_H_
