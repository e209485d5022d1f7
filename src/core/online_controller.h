/**
 * @file
 * The online controller K (§III-B, Fig. 2): each control cycle it
 *
 *  1. reads the measured performance y_n from the perf tool,
 *  2. runs the performance regulator (adaptive integrator + Kalman base-
 *     speed estimator) to obtain the required speedup s_n,
 *  3. runs the energy optimizer (the LP of equations (4)–(7)) to obtain the
 *     dwell-time schedule u_n, and
 *  4. hands u_n to the platform's actuator, which drives the userspace
 *     governors through sysfs.
 *
 * The controller talks to hardware exclusively through the narrow
 * aeo::platform interfaces (perf sampling, actuation, governor pinning,
 * thermal read-back); it never touches sysfs or the device model itself,
 * so it runs unchanged against the simulated Nexus 6 (SimPlatform) or a
 * scripted test double (FakePlatform).
 *
 * The controller works for both coordinated (CPU + bandwidth) and CPU-only
 * control — the difference is entirely in the profile table it is given
 * (CPU-only tables carry the kBwDefaultGovernor sentinel and leave the bus
 * with cpubw_hwmon, reproducing the §V-D ablation).
 *
 * Operating modes are tracked by one explicit ControllerStateMachine (see
 * controller_state_machine.h and DESIGN.md §10): a missing or implausible
 * measurement moves the loop to DEGRADED (hold the Kalman estimate, reuse
 * the previous schedule), an unreachable target to SAFE_MODE (dwell at the
 * best feasible point), and a watchdog trip after K consecutive failed
 * actuation cycles to PROBE or FALLBACK_STOCK (stock governors rule;
 * periodic probes re-engage control once the device has healed).
 *
 * Beyond erroring writes, the loop defends against writes that *lie*:
 * every dwell is verified by read-back, clamped-away configurations
 * (thermal throttling, injected silent clamps) are masked out of the
 * feasible set and the LP re-solved over the reachable subset. A profile-
 * drift detector compares measured (speedup, power) against the table's
 * predictions for the configurations actually delivered and applies
 * bounded multiplicative corrections once the residual is persistent.
 */
#ifndef AEO_CORE_ONLINE_CONTROLLER_H_
#define AEO_CORE_ONLINE_CONTROLLER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/controller_state_machine.h"
#include "core/energy_optimizer.h"
#include "core/performance_regulator.h"
#include "core/profile_drift.h"
#include "core/profile_table.h"
#include "platform/deadline_supervisor.h"
#include "platform/platform.h"
#include "power/power_model.h"

namespace aeo {

/**
 * The controller's own cost, charged to the plant every control cycle
 * (§V-A1): the regulator and optimizer compute for under 10 ms at ~25 mW,
 * and each sysfs actuation write draws ~14 mW during its transition.
 */
inline constexpr Seconds kControllerComputeTime{0.010};
inline constexpr Milliwatts kControllerComputePower{25.0};
inline constexpr Seconds kActuationWriteTime{0.0002};
inline constexpr Milliwatts kActuationWritePower{14.0};

/**
 * Deadline storm: after this many consecutive missed ticks the loop cannot
 * hold its epoch and degrades to the stock governors (temporal analogue of
 * the actuation watchdog).
 */
inline constexpr int kDeadlineStormThreshold = 4;
static_assert(kDeadlineStormThreshold > 0,
              "deadline storm threshold must be positive");

/** Controller tuning (paper values as defaults). */
struct ControllerConfig {
    /** Target performance r, GIPS. Must be set. */
    double target_gips = 0.0;
    /** Control cycle duration T (§IV-B chooses 2 s). */
    SimTime control_cycle = SimTime::FromSeconds(2);
    /** Minimum dwell per configuration (§V-A: 200 ms). */
    SimTime min_dwell = SimTime::Millis(200);
    /** Disable the Kalman filter (ablation): hold b̂ at the profiled value. */
    bool use_kalman = true;
    /**
     * Regulator surplus-banking band, in speedup units (see
     * RegulatorConfig::surplus_band). On phase-heterogeneous applications
     * whose demand bursts dwarf one cycle's speedup swing, banking turns
     * each burst into credit spent as extra low-speedup cycles — the
     * race-to-idle behaviour stock governors get reactively. 0 (the
     * default) keeps the paper's plain clamped integrator, bit-identical.
     */
    double regulator_surplus_band = 0.0;
    /**
     * Downward slew limit of the regulator output, speedup units per cycle
     * (see RegulatorConfig::max_step_down). Pairs with the surplus band:
     * the band decides how much burst credit is remembered, the slew
     * decides how efficiently it is spent. kUnlimitedStep (the default)
     * keeps the paper's regulator, bit-identical.
     */
    double regulator_max_step_down = kUnlimitedStep;
    /**
     * Watchdog threshold K: after this many consecutive control cycles whose
     * actuation failed, the controller abandons userspace control and hands
     * the device back to the stock governors.
     */
    int watchdog_threshold = 3;
    /**
     * Read-back verification of every actuation write (see the Actuator
     * interface). Clamped configurations discovered this way are masked out
     * of the feasible set and the LP re-solved over what the device can
     * actually reach. Off, the controller trusts writes blindly
     * (pre-hardening behaviour).
     */
    bool readback_verification = true;
    /**
     * A mismatch cap only engages after clamp evidence in this many
     * consecutive control cycles. A genuine silent clamp (thermal ceiling,
     * firmware limit) re-confirms every cycle and is trusted after one
     * extra cycle; an isolated lying write — a transient fault — never
     * repeats back-to-back and is ignored rather than allowed to mask the
     * feasible set. 1 restores engage-on-first-sight.
     */
    int cap_confirm_cycles = 2;
    /** Online profile-drift detection and correction. */
    DriftConfig drift;
    /**
     * Watchdog re-engagement: after the fallback to stock governors, probe
     * the actuation path every reengage_probe_cycles control cycles and
     * resume control after reengage_successes consecutive healthy probes.
     * Off, the fallback is terminal (pre-hardening behaviour).
     */
    bool reengage = true;
    int reengage_probe_cycles = 5;
    int reengage_successes = 3;
    /**
     * Suspend hardening: quarantine perf data that straddles a
     * suspend gap (hold the estimate, reuse the schedule, skip delivery
     * accounting) and forgive pre-suspend watchdog strikes. Off, the
     * controller consumes the stretched window as if it were one epoch —
     * the pre-hardening stale-actuation bug the chaos monitors catch.
     */
    bool suspend_resync = true;
};

/** One per-cycle record for analysis. */
struct ControlCycleRecord {
    double time_s = 0.0;
    double measured_gips = 0.0;
    double required_speedup = 0.0;
    double base_speed_estimate = 0.0;
    Milliwatts expected_power_mw;
    SystemConfig low_config;
    SystemConfig high_config;
    /** Perf samples the measurement averaged over (0 = all dropped). */
    uint64_t perf_samples = 0;
    /** True if this cycle ran in degraded mode (held estimate, reused the
     * previous schedule) because the measurement was missing or garbage. */
    bool degraded = false;
    /** Zone temperature at the cycle boundary, °C (reference temperature
     * when no thermal zone is exposed). */
    double temp_c = kLeakageReferenceC;
    /** CPU cap the cycle planned under, as a level (-1 = uncapped). */
    int cpu_cap_level = -1;
    /** True when the reachable set could not meet the performance target
     * and the controller ran inside the safe-mode envelope. */
    bool safe_mode = false;
    /** Average power the monitor measured over the elapsed cycle. */
    Milliwatts measured_power_mw;
    /** How late the tick that opened this cycle was (always recorded, even
     * with suspend_resync off — classification is free, only handling is
     * gated). */
    platform::TickKind tick_kind = platform::TickKind::kOnTime;
    double tick_lateness_s = 0.0;
    /** Whole control epochs the lateness spans (suspend gap length). */
    int64_t epochs_skipped = 0;
    /** True when the stale-data guard quarantined this cycle's measurement
     * (a suspend gap under suspend_resync). */
    bool stale_guard = false;
};

/** The feedback controller driving one device, through its platform. */
class OnlineController {
  public:
    /**
     * @param platform Hardware access; must outlive the controller.
     * @param table    Offline profile of the controlled application (copied).
     * @param config   Tuning; target_gips must be positive.
     */
    OnlineController(platform::Platform* platform, ProfileTable table,
                     ControllerConfig config);

    /**
     * Observer invoked at the end of every control tick with the tick's
     * record and the delivery read-backs it was derived from. A tick that
     * falls back before steering (deadline storm, empty feasible set) sets
     * only the record's time and tick fields and is no completed cycle, so
     * history() does not keep it. The seam external harnesses (e.g. chaos invariant monitors) watch the
     * loop through without widening the controller API; observers must not
     * reentrantly drive the controller.
     */
    using CycleObserver = std::function<void(
        const ControlCycleRecord& record,
        const std::vector<platform::DwellDelivery>& deliveries)>;

    /** Attaches @p observer; observers run in attachment order. */
    void AddCycleObserver(CycleObserver observer);

    /**
     * Takes over the device: switches the governors to userspace (bandwidth
     * only when the table controls it), starts perf sampling, applies the
     * initial schedule and begins the control cycle.
     */
    void Start();

    /** Stops the control cycle and perf sampling. */
    void Stop();

    /** Number of completed control cycles. */
    size_t cycle_count() const { return history_.size(); }

    /** Per-cycle trace. */
    const std::vector<ControlCycleRecord>& history() const { return history_; }

    /** The profile table in use. */
    const ProfileTable& table() const { return table_; }

    /** Current base-speed estimate, GIPS. */
    double base_speed_estimate() const;

    /** The regulator (for tests). */
    const PerformanceRegulator& regulator() const { return regulator_; }

    /** The actuator (actuation health counters, for tests and benches). */
    const platform::Actuator& actuator() const
    {
        return platform_->actuator();
    }

    /** Current operating mode. */
    ControllerState state() const { return machine_.state(); }

    /** The mode tracker (for tests). */
    const ControllerStateMachine& machine() const { return machine_; }

    /** True once the watchdog has handed the device back to the stock
     * governors; the control cycle no longer runs (but recovery probing
     * may re-engage it — see reengage_count()). */
    bool fallback_engaged() const { return machine_.fallback_engaged(); }

    /** Cycles that ran in degraded mode (missing/garbage measurement). */
    uint64_t degraded_cycle_count() const { return degraded_cycle_count_; }

    /** Times the watchdog re-engaged control after a fallback. */
    uint64_t reengage_count() const { return reengage_count_; }

    /** Cycles spent in the safe-mode envelope (target unreachable). */
    uint64_t safe_mode_cycle_count() const { return safe_mode_cycle_count_; }

    /** Cycles whose tick missed its deadline (lateness past tolerance). */
    uint64_t deadline_miss_cycle_count() const
    {
        return deadline_miss_cycle_count_;
    }

    /** Cycles that resumed after a suspend-length gap. */
    uint64_t suspend_gap_cycle_count() const
    {
        return suspend_gap_cycle_count_;
    }

    /** Cycles whose measurement the stale-data guard quarantined. */
    uint64_t stale_guard_cycle_count() const
    {
        return stale_guard_cycle_count_;
    }

    /** Deadline accounting of the control tick (for tests and benches). */
    const platform::DeadlineStats& deadline_stats() const
    {
        return cycle_tick_.stats();
    }

    /** The drift detector (trace and corrections, for tests and benches). */
    const ProfileDriftDetector& drift() const { return drift_; }

    /**
     * The table the optimizer currently plans over: the offline profile
     * with clamped-away rows masked out and drift corrections applied.
     * Identical to table() while the device is healthy.
     */
    const ProfileTable& working_table() const { return *active_table_; }

  private:
    void RunCycle(const platform::TickInfo& tick);

    /** The control cycle proper: fills @p record and @p deliveries. False
     * when it engaged the fallback before steering. */
    bool Steer(const platform::TickInfo& tick, ControlCycleRecord* record,
               std::vector<platform::DwellDelivery>* deliveries);

    /** Resolves @p schedule's slots against the active table and hands the
     * dwell plan to the platform's actuator. */
    void Actuate(const ConfigSchedule& schedule);

    /** Watchdog action on @p trigger: revert to the stock governors and
     * stop actuating (then probe for recovery when re-engagement is on). */
    void EngageFallback(ControllerEvent trigger);

    /** Stops the control cycle and sampling without touching probe state. */
    void StopControl();

    /** One recovery probe of the actuation path after a fallback. */
    void ProbeRecovery();

    /** Resumes control after enough healthy probes. */
    void Reengage();

    /** Consumes the elapsed cycle's delivery records: learns caps from
     * read-back mismatches and feeds the drift detector. */
    void ConsumeDeliveries(
        const std::vector<platform::DwellDelivery>& deliveries,
        double measured_gips, Milliwatts measured_power_mw,
        bool measurement_plausible);

    /** Rebuilds (or retires) the masked + drift-corrected working table
     * under the given caps. Returns false when the reachable set is empty. */
    bool RefreshWorkingTable(int cpu_cap, int bw_cap);

    platform::Platform* platform_;
    ProfileTable table_;
    ControllerConfig config_;
    EnergyOptimizer optimizer_;
    PerformanceRegulator regulator_;
    ProfileDriftDetector drift_;
    ControllerStateMachine machine_;
    platform::DeadlineSupervisor cycle_tick_;
    platform::DeadlineSupervisor probe_tick_;
    std::vector<ControlCycleRecord> history_;
    std::vector<CycleObserver> cycle_observers_;
    bool controls_bandwidth_;
    bool controls_gpu_;
    /** Original row index per configuration (for drift attribution). */
    std::map<SystemConfig, size_t> config_index_;
    ConfigSchedule last_schedule_;
    bool has_last_schedule_ = false;
    /** Bumped on every working-table change; a remembered schedule's slot
     * indices are only valid while the version matches. */
    uint64_t table_version_ = 0;
    uint64_t last_schedule_version_ = 0;
    uint64_t degraded_cycle_count_ = 0;
    uint64_t reengage_count_ = 0;
    uint64_t safe_mode_cycle_count_ = 0;
    uint64_t deadline_miss_cycle_count_ = 0;
    uint64_t suspend_gap_cycle_count_ = 0;
    uint64_t stale_guard_cycle_count_ = 0;

    /** Caps learned from read-back mismatches (sentinels = none). */
    int mismatch_cpu_cap_ = platform::kNoCapLevel;
    int mismatch_bw_cap_ = platform::kNoCapLevel;
    int mismatch_cap_age_ = 0;
    /** Consecutive cycles with clamp evidence (debounce counter). */
    int mismatch_streak_ = 0;

    /** The masked/corrected table when active; the originals otherwise. */
    std::unique_ptr<ProfileTable> working_table_;
    std::unique_ptr<EnergyOptimizer> working_optimizer_;
    const ProfileTable* active_table_;
    const EnergyOptimizer* active_optimizer_;
};

}  // namespace aeo

#endif  // AEO_CORE_ONLINE_CONTROLLER_H_
