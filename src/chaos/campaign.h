/**
 * @file
 * The campaign runner: one seeded chaos campaign end to end.
 *
 * RunCampaign() builds a fresh simulated Nexus 6, launches the app,
 * attaches the online controller through the Platform seam, installs the
 * scenario's fault actions as timed events (FaultInjector rules appearing
 * and being repaired at their windows; msm_thermal threshold drops for
 * thermal-cap actions), wires the invariant-monitor catalogue into the
 * controller's cycle-observer hook, runs the campaign, and returns a
 * CampaignReport with per-monitor verdicts and the control-cycle tail.
 *
 * Everything is deterministic in (scenario, options): campaigns fan out
 * over BatchRunner workers and produce bit-identical reports at any
 * worker count.
 */
#ifndef AEO_CHAOS_CAMPAIGN_H_
#define AEO_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/invariant_monitor.h"
#include "chaos/scenario.h"
#include "core/online_controller.h"
#include "core/profile_table.h"
#include "kernel/msm_thermal.h"
#include "platform/platform.h"

namespace aeo::chaos {

/** Control-cycle records kept in a report (the crash-bundle tail). */
inline constexpr size_t kCampaignHistoryTail = 32;

/** Everything a campaign run needs besides the scenario itself. */
struct CampaignOptions {
    /** Application under control (AppRegistry name). */
    std::string app = "AngryBirds";
    /** Clean offline profile of @p app (required; not owned). */
    const ProfileTable* table = nullptr;
    /** Performance target r (required, > 0). */
    double target_gips = 0.0;
    /** Device seed; 0 derives one from the scenario seed. */
    uint64_t device_seed = 0;
    /** Spec the scenario was generated under (campaign duration). */
    CampaignSpec spec;
    /** Controller tuning; target_gips is overridden from above. */
    ControllerConfig controller;
    /** Enable the thermal subsystem (required for kThermalCap actions),
     * with the default package model. */
    bool enable_thermal = true;
    /** msm_thermal tuning used when enabled. */
    MsmThermalParams msm_thermal;
    /**
     * Optional platform decorator for planted-bug fixtures: receives the
     * real SimPlatform and returns the platform the controller sees (see
     * platform_decorator.h). The returned object is kept alive for the
     * run. Null = the controller runs on the real platform.
     */
    std::function<std::unique_ptr<platform::Platform>(platform::Platform*)>
        decorate_platform;
};

/** One monitor's verdict over a campaign. */
struct MonitorVerdict {
    std::string monitor;
    uint64_t violations = 0;
    /** Cycle index of the first violation; -1 when clean. */
    int64_t first_violation_cycle = -1;
    double first_violation_time_s = 0.0;
    std::string first_message;
};

/** The outcome of one campaign run. */
struct CampaignReport {
    uint64_t seed = 0;
    uint64_t cycles = 0;
    bool fallback = false;
    uint64_t degraded_cycles = 0;
    uint64_t safe_mode_cycles = 0;
    uint64_t reengage_count = 0;
    uint64_t fault_events = 0;
    double energy_j = 0.0;
    double avg_gips = 0.0;
    /** Deadline accounting of the control tick (DESIGN.md §13). */
    uint64_t jitter_ticks = 0;
    uint64_t missed_ticks = 0;
    uint64_t suspend_gap_ticks = 0;
    /** Cycles whose measurement the stale-data guard quarantined. */
    uint64_t stale_guard_cycles = 0;
    /** One verdict per catalogue monitor, in catalogue order. */
    std::vector<MonitorVerdict> verdicts;
    uint64_t total_violations = 0;
    /** Earliest first-violation cycle across monitors; -1 when clean. */
    int64_t first_violation_cycle = -1;
    std::string first_violation_monitor;
    /** Last history_tail control-cycle records. */
    std::vector<ControlCycleRecord> cycle_tail;

    bool clean() const { return total_violations == 0; }
};

/** Verdict summary <-> JSON (shared with the crash bundle). */
JsonValue CampaignReportToJson(const CampaignReport& report);

/** Runs @p scenario under @p options. Deterministic. */
CampaignReport RunCampaign(const CampaignOptions& options,
                           const ChaosScenario& scenario);

}  // namespace aeo::chaos

#endif  // AEO_CHAOS_CAMPAIGN_H_
