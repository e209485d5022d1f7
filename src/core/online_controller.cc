#include "core/online_controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace aeo {

namespace {

/** Kalman base-speed estimator tuning. */
constexpr double kKalmanProcessVar = 1e-5;
constexpr double kKalmanMeasurementVar = 1e-4;

/**
 * Plausibility ceiling for a measured performance sample, as a multiple of
 * (base-speed estimate × max profiled speedup). A window average above this
 * is treated as garbage and the cycle runs degraded.
 */
constexpr double kPlausibilityFactor = 4.0;

/**
 * A clamp learned from read-back mismatches expires after this many cycles
 * without re-confirmation, letting the controller re-probe the full table
 * once the device has cooled. (The policy-limit cap read from
 * scaling_max_freq refreshes every cycle and needs no expiry.)
 */
constexpr int kCapRecheckCycles = 5;

RegulatorConfig
MakeRegulatorConfig(const ProfileTable& table, const ControllerConfig& config)
{
    RegulatorConfig reg;
    reg.target_gips = config.target_gips;
    reg.initial_base_speed = table.base_speed_gips();
    reg.min_speedup = table.min_speedup();
    reg.max_speedup = table.max_speedup();
    reg.kalman_process_var = config.use_kalman ? kKalmanProcessVar : 0.0;
    // With the Kalman filter disabled, a huge measurement variance freezes
    // the estimate at the profiled base speed (gain → 0).
    reg.kalman_measurement_var = config.use_kalman ? kKalmanMeasurementVar : 1e12;
    reg.surplus_band = config.regulator_surplus_band;
    reg.max_step_down = config.regulator_max_step_down;
    return reg;
}

StateMachineOptions
MakeStateMachineOptions(const ControllerConfig& config)
{
    StateMachineOptions options;
    options.reengage = config.reengage;
    options.reengage_successes = config.reengage_successes;
    return options;
}

}  // namespace

OnlineController::OnlineController(platform::Platform* platform,
                                   ProfileTable table, ControllerConfig config)
    : platform_(platform),
      table_(std::move(table)),
      config_(config),
      optimizer_(&table_),
      regulator_(MakeRegulatorConfig(table_, config)),
      drift_(table_.size(), config.drift),
      machine_(MakeStateMachineOptions(config)),
      cycle_tick_(&platform->clock(),
                  [this](const platform::TickInfo& tick) { RunCycle(tick); }),
      probe_tick_(&platform->clock(),
                  [this](const platform::TickInfo&) { ProbeRecovery(); }),
      controls_bandwidth_(table_.entries().front().config.controls_bandwidth()),
      controls_gpu_(table_.entries().front().config.controls_gpu()),
      active_table_(&table_),
      active_optimizer_(&optimizer_)
{
    AEO_ASSERT(platform_ != nullptr, "controller needs a platform");
    AEO_ASSERT(config_.target_gips > 0.0, "controller needs a performance target");
    AEO_ASSERT(config_.watchdog_threshold > 0, "watchdog threshold must be positive");
    AEO_ASSERT(config_.cap_confirm_cycles > 0, "cap confirm must be positive");
    AEO_ASSERT(config_.reengage_probe_cycles > 0 && config_.reengage_successes > 0,
               "re-engagement tuning must be positive");
    for (size_t i = 0; i < table_.entries().size(); ++i) {
        const ProfileEntry& entry = table_.entries()[i];
        AEO_ASSERT(entry.config.controls_bandwidth() == controls_bandwidth_,
                   "profile table mixes coordinated and CPU-only rows");
        AEO_ASSERT(entry.config.controls_gpu() == controls_gpu_,
                   "profile table mixes GPU-controlled and default-GPU rows");
        config_index_.emplace(entry.config, i);
    }
    platform::Actuator& actuator = platform_->actuator();
    actuator.ConfigureActuation(config_.min_dwell);
    actuator.SetReadbackVerification(config_.readback_verification);
}

void
OnlineController::Start()
{
    platform_->governors().PinForControl(controls_bandwidth_, controls_gpu_);

    // Charge the controller's own computation and actuation to the plant
    // (§V-A1): <10 ms at ~25 mW per cycle plus ~14 mW during transitions.
    const double writes_per_cycle =
        2.0 * (1.0 + (controls_bandwidth_ ? 1.0 : 0.0) + (controls_gpu_ ? 1.0 : 0.0));
    const double overhead_mw =
        (kControllerComputeTime.value() * kControllerComputePower.value() +
         writes_per_cycle * kActuationWriteTime.value() *
             kActuationWritePower.value()) /
        config_.control_cycle.seconds();
    platform_->SetControllerOverheadPower(overhead_mw);

    platform_->perf().StartSampling();
    platform_->Sync();

    // Apply the initial schedule from the profiled base speed (over the
    // working table, which still excludes any caps learned before a
    // watchdog round-trip).
    const double s0 = regulator_.applied_speedup();
    const ConfigSchedule initial =
        active_optimizer_->Optimize(s0, config_.control_cycle.seconds());
    Actuate(initial);
    last_schedule_ = initial;
    last_schedule_version_ = table_version_;
    has_last_schedule_ = true;

    if (platform_->actuator().consecutive_failed_applies() >=
        config_.watchdog_threshold) {
        EngageFallback(ControllerEvent::kWatchdogTrip);
        return;
    }

    cycle_tick_.Start(config_.control_cycle);
}

void
OnlineController::Stop()
{
    probe_tick_.Stop();
    StopControl();
    machine_.Dispatch(ControllerEvent::kControlStopped);
}

void
OnlineController::StopControl()
{
    cycle_tick_.Stop();
    platform_->perf().StopSampling();
    platform_->SetControllerOverheadPower(0.0);
    platform_->Sync();
}

double
OnlineController::base_speed_estimate() const
{
    return regulator_.base_speed_estimate();
}

void
OnlineController::Actuate(const ConfigSchedule& schedule)
{
    platform::ActuationPlan plan;
    for (const ScheduleSlot& slot : schedule.slots) {
        plan.push_back(platform::PlannedDwell{
            active_table_->entries()[slot.entry_index].config, slot.seconds});
    }
    platform_->actuator().Apply(plan);
}

void
OnlineController::EngageFallback(ControllerEvent trigger)
{
    if (machine_.fallback_engaged()) {
        return;
    }
    machine_.Dispatch(trigger);
    Warn("watchdog: %d consecutive control cycles failed to actuate; "
         "reverting to the stock governors",
         platform_->actuator().consecutive_failed_applies());
    platform_->actuator().CancelPending();
    // Best effort: if even these writes fail, the device keeps whatever
    // governors it has — there is nothing further a userspace agent can do.
    platform_->governors().RestoreStock();
    StopControl();
    if (config_.reengage) {
        // Keep probing the actuation path; once it stays healthy long
        // enough the controller takes the device back. Probe lateness is
        // irrelevant — the callback ignores the tick classification.
        probe_tick_.Start(config_.control_cycle * config_.reengage_probe_cycles);
    }
}

void
OnlineController::ProbeRecovery()
{
    const bool healthy = platform_->actuator().ProbeActuationPath();
    const StateTransition transition = machine_.Dispatch(
        healthy ? ControllerEvent::kProbeOk : ControllerEvent::kProbeFailed);
    if (transition.changed) {
        // Quorum met: the machine is back in NORMAL.
        probe_tick_.Stop();
        Reengage();
    }
}

void
OnlineController::Reengage()
{
    ++reengage_count_;
    Warn("watchdog: actuation path healthy for %d probes; re-engaging control",
         config_.reengage_successes);
    platform_->actuator().ResetFailureTracking();
    Start();
}

void
OnlineController::AddCycleObserver(CycleObserver observer)
{
    AEO_ASSERT(observer != nullptr, "cycle observer must be callable");
    cycle_observers_.push_back(std::move(observer));
}

void
OnlineController::ConsumeDeliveries(
    const std::vector<platform::DwellDelivery>& deliveries,
    double measured_gips, Milliwatts measured_power_mw,
    bool measurement_plausible)
{
    using platform::DwellDelivery;
    constexpr int kNoCap = platform::kNoCapLevel;

    // --- Clamp learning from read-back mismatches -------------------------
    if (config_.readback_verification) {
        bool saw_mismatch = false;
        int cycle_cpu_cap = kNoCap;
        int cycle_bw_cap = kNoCap;
        for (const DwellDelivery& dwell : deliveries) {
            if (dwell.cpu.clamped()) {
                cycle_cpu_cap =
                    std::min(cycle_cpu_cap, dwell.cpu.delivered_level);
                saw_mismatch = true;
            }
            if (dwell.bw.attempted && dwell.bw.clamped()) {
                cycle_bw_cap =
                    std::min(cycle_bw_cap, dwell.bw.delivered_level);
                saw_mismatch = true;
            }
        }
        if (saw_mismatch) {
            machine_.Dispatch(ControllerEvent::kActuationMismatch);
            // Debounce: a persistent clamp re-confirms every cycle and is
            // trusted after cap_confirm_cycles; an isolated lying write is
            // transient noise and must not mask the feasible set.
            mismatch_streak_ = std::min(mismatch_streak_ + 1,
                                        config_.cap_confirm_cycles);
            if (mismatch_streak_ >= config_.cap_confirm_cycles ||
                mismatch_cpu_cap_ != kNoCap || mismatch_bw_cap_ != kNoCap) {
                machine_.Dispatch(ControllerEvent::kClampConfirmed);
                mismatch_cpu_cap_ = std::min(mismatch_cpu_cap_, cycle_cpu_cap);
                mismatch_bw_cap_ = std::min(mismatch_bw_cap_, cycle_bw_cap);
            }
            mismatch_cap_age_ = 0;
        } else {
            mismatch_streak_ = 0;
            if (mismatch_cpu_cap_ != kNoCap || mismatch_bw_cap_ != kNoCap) {
                // No re-confirmation: let a stale clamp expire so the
                // controller re-probes the full table once the device has
                // recovered.
                if (++mismatch_cap_age_ >= kCapRecheckCycles) {
                    machine_.Dispatch(ControllerEvent::kCapExpired);
                    mismatch_cpu_cap_ = kNoCap;
                    mismatch_bw_cap_ = kNoCap;
                    mismatch_cap_age_ = 0;
                }
            }
        }
    }

    // --- Drift observation ------------------------------------------------
    if (!config_.drift.enabled || !measurement_plausible ||
        measured_power_mw.value() <= 0.0) {
        return;
    }
    double total_seconds = 0.0;
    for (const DwellDelivery& dwell : deliveries) {
        total_seconds += dwell.seconds;
    }
    if (total_seconds <= 0.0) {
        return;
    }

    // Attribute the cycle to the configurations the device actually ran
    // (delivered levels where verified, requested otherwise) and predict
    // what the *original* table says that mixture should have produced.
    // The dwell list is walked twice — once to decide whether the cycle is
    // attributable at all, once to feed the drift detector — so the matched
    // rows never need to be materialized (RunCycle is allocation-free).
    const auto match_entry = [this,
                              total_seconds](const DwellDelivery& dwell,
                                             size_t* entry_index,
                                             double* weight) {
        SystemConfig effective = dwell.requested_config;
        if (dwell.cpu.verified) {
            effective.cpu_level = dwell.cpu.delivered_level;
        }
        if (dwell.bw.attempted && dwell.bw.verified) {
            effective.bw_level = dwell.bw.delivered_level;
        }
        if (dwell.gpu.attempted && dwell.gpu.verified) {
            effective.gpu_level = dwell.gpu.delivered_level;
        }
        const auto it = config_index_.find(effective);
        if (it == config_index_.end()) {
            return false;  // Delivered an unprofiled point; no comparison.
        }
        *entry_index = it->second;
        *weight = dwell.seconds / total_seconds;
        return true;
    };
    double covered = 0.0;
    double predicted_power_mw = 0.0;
    double predicted_speedup = 0.0;
    for (const DwellDelivery& dwell : deliveries) {
        size_t entry_index = 0;
        double weight = 0.0;
        if (!match_entry(dwell, &entry_index, &weight)) {
            continue;
        }
        const ProfileEntry& entry = table_.entries()[entry_index];
        predicted_power_mw += weight * entry.power_mw.value();
        predicted_speedup += weight * entry.speedup;
        covered += weight;
    }
    // Only attribute when the visited rows explain (essentially) the whole
    // cycle — a partially unprofiled cycle would smear foreign residuals
    // onto the rows that were matched.
    if (covered < 0.999 || predicted_power_mw <= 0.0 ||
        predicted_speedup <= 0.0) {
        return;
    }
    const double base = regulator_.base_speed_estimate();
    if (base <= 0.0) {
        return;
    }
    const double measured_speedup = measured_gips / base;
    const double power_residual = measured_power_mw.value() / predicted_power_mw;
    const double speedup_residual = measured_speedup / predicted_speedup;
    const double now_s = platform_->clock().Now().seconds();
    for (const DwellDelivery& dwell : deliveries) {
        size_t entry_index = 0;
        double weight = 0.0;
        if (!match_entry(dwell, &entry_index, &weight)) {
            continue;
        }
        drift_.Observe(now_s, entry_index, weight, power_residual,
                       speedup_residual);
    }
}

// aeo: hot-path-stop -- amortized: rebuilds only when a cap, drift
// correction, or table version actually changes, never on the steady-state
// cycle path.
bool
OnlineController::RefreshWorkingTable(int cpu_cap, int bw_cap)
{
    std::vector<ProfileEntry> rows;
    rows.reserve(table_.size());
    bool changed = false;
    bool drift_corrected = false;
    for (size_t i = 0; i < table_.entries().size(); ++i) {
        const ProfileEntry& entry = table_.entries()[i];
        const bool reachable =
            entry.config.cpu_level <= cpu_cap &&
            (!entry.config.controls_bandwidth() ||
             entry.config.bw_level <= bw_cap);
        if (!reachable) {
            changed = true;
            continue;
        }
        ProfileEntry corrected = entry;
        const double power_factor = drift_.PowerCorrection(i);
        const double speedup_factor = drift_.SpeedupCorrection(i);
        if (power_factor != 1.0 || speedup_factor != 1.0) {
            corrected.power_mw = corrected.power_mw * power_factor;
            corrected.speedup *= speedup_factor;
            changed = true;
            drift_corrected = true;
        }
        rows.push_back(corrected);
    }

    if (!changed) {
        // Healthy: plan over the originals, bit-identical to a controller
        // without this machinery.
        if (active_table_ != &table_) {
            ++table_version_;
        }
        active_table_ = &table_;
        active_optimizer_ = &optimizer_;
        working_table_.reset();
        working_optimizer_.reset();
        return true;
    }
    if (rows.empty()) {
        return false;
    }
    if (drift_corrected) {
        machine_.Dispatch(ControllerEvent::kDriftCorrected);
    }
    working_table_ = std::make_unique<ProfileTable>(table_.app_name(), rows,
                                                    table_.base_speed_gips());
    working_optimizer_ = std::make_unique<EnergyOptimizer>(working_table_.get());
    active_table_ = working_table_.get();
    active_optimizer_ = working_optimizer_.get();
    ++table_version_;
    return true;
}

// aeo: hot-path
void
OnlineController::RunCycle(const platform::TickInfo& tick)
{
    if (machine_.fallback_engaged()) {
        return;
    }
    machine_.Dispatch(ControllerEvent::kCycleStart);

    ControlCycleRecord record;
    record.time_s = platform_->clock().Now().seconds();
    record.tick_kind = tick.kind;
    record.tick_lateness_s = tick.lateness.seconds();
    record.epochs_skipped = tick.epochs_skipped;
    std::vector<platform::DwellDelivery> deliveries;
    if (Steer(tick, &record, &deliveries)) {
        // aeo-lint: allow(hot-path-alloc) -- the cycle history is the
        // experiment's output artifact; growth here IS the product.
        history_.push_back(record);
        if (!record.stale_guard &&
            platform_->actuator().consecutive_failed_applies() >=
                config_.watchdog_threshold) {
            EngageFallback(ControllerEvent::kWatchdogTrip);
        }
    }

    // Observers run last so they see the tick's full effect, including a
    // fallback it engaged.
    for (const CycleObserver& observer : cycle_observers_) {
        // aeo-lint: allow(hot-path-alloc) -- invoking an already-stored
        // std::function does not allocate; only constructing one does.
        observer(record, deliveries);
    }
}

bool
OnlineController::Steer(const platform::TickInfo& tick,
                        ControlCycleRecord* record,
                        std::vector<platform::DwellDelivery>* deliveries)
{
    // (0) Deadline accounting. Classification is always recorded; only the
    // *handling* below is gated by suspend_resync, so the pre-hardening
    // behaviour (consume a stretched window as one epoch) stays plantable
    // for the chaos monitors.
    const bool suspend_gap = tick.kind == platform::TickKind::kSuspendGap;
    if (tick.kind == platform::TickKind::kMissed) {
        ++deadline_miss_cycle_count_;
    }
    if (suspend_gap) {
        ++suspend_gap_cycle_count_;
    }
    if (config_.suspend_resync) {
        switch (tick.kind) {
        case platform::TickKind::kOnTime:
            break;
        case platform::TickKind::kJitter:
            machine_.Dispatch(ControllerEvent::kTickJitter);
            break;
        case platform::TickKind::kMissed:
            machine_.Dispatch(ControllerEvent::kTickMissed);
            if (tick.consecutive_misses >= kDeadlineStormThreshold) {
                Warn("deadline storm: %d consecutive control ticks missed "
                     "their epoch; handing the device back to the stock "
                     "governors",
                     tick.consecutive_misses);
                EngageFallback(ControllerEvent::kDeadlineStorm);
                return false;
            }
            break;
        case platform::TickKind::kSuspendGap:
            machine_.Dispatch(ControllerEvent::kSuspendResume);
            break;
        }
    }
    // Stale-data guard: a window that straddles a suspend gap is not one
    // epoch of the running app; steering on it would actuate from
    // pre-suspend data.
    const bool stale_guard = config_.suspend_resync && suspend_gap;
    if (stale_guard) {
        ++stale_guard_cycle_count_;
    }

    // (1) Measure: average of the perf samples in the elapsed cycle. The
    // window can be empty (every sample dropped by an injected PMU fault)
    // or garbage (counter glitch); either way the cycle runs degraded:
    // the Kalman estimate holds and the previous schedule is reapplied.
    // A quarantined (stale) window degrades the same way.
    const platform::PerfWindow window = platform_->perf().DrainWindow();
    const Milliwatts measured_power_mw =
        Milliwatts(platform_->perf().DrainAveragePowerMw());
    const bool plausible =
        window.samples > 0 && std::isfinite(window.avg_gips) &&
        window.avg_gips > 0.0 &&
        window.avg_gips <= kPlausibilityFactor *
                               regulator_.base_speed_estimate() *
                               table_.max_speedup();
    const bool usable = plausible && !stale_guard;
    machine_.Dispatch(usable ? ControllerEvent::kPerfReadOk
                             : ControllerEvent::kPerfReadFailed);

    // (1b) Verify: what did the device actually run last cycle? Learn caps
    // from read-back mismatches and feed the drift detector, then re-derive
    // the feasible set under the kernel's advertised frequency ceiling.
    // (Copied: Apply() later this cycle clears the actuator's records, and
    // the cycle observers see the same snapshot.)
    // A suspend gap quarantines the whole delivery history: the records
    // straddle the sleep, so clamp evidence and drift residuals derived
    // from them would be gap artefacts, and actuation strikes from before
    // the sleep must not count toward the watchdog after it.
    *deliveries = platform_->actuator().cycle_deliveries();
    if (stale_guard) {
        platform_->actuator().ResetFailureTracking();
    } else {
        ConsumeDeliveries(*deliveries, window.avg_gips, measured_power_mw,
                          usable);
    }
    const int policy_cap = config_.readback_verification
                               ? platform_->thermals().ReadCpuCapLevel()
                               : platform::kNoCapLevel;
    const int cpu_cap = std::min(policy_cap, mismatch_cpu_cap_);
    const int bw_cap = mismatch_bw_cap_;
    if (!RefreshWorkingTable(cpu_cap, bw_cap)) {
        Warn("no profiled configuration reachable under cpu cap level %d; "
             "handing the device back to the stock governors",
             cpu_cap);
        EngageFallback(ControllerEvent::kFeasibleSetEmpty);
        return false;
    }

    double required;
    ConfigSchedule schedule;
    if (usable) {
        // (2) Regulate: required speedup for the next cycle.
        required = regulator_.Step(window.avg_gips);

        // (3) Optimize: minimum-energy dwell schedule realizing it over the
        // *reachable* (masked, drift-corrected) table.
        schedule = active_optimizer_->Optimize(required,
                                               config_.control_cycle.seconds());
        last_schedule_ = schedule;
        last_schedule_version_ = table_version_;
        has_last_schedule_ = true;
    } else {
        ++degraded_cycle_count_;
        required = regulator_.applied_speedup();
        if (has_last_schedule_ && last_schedule_version_ == table_version_) {
            schedule = last_schedule_;
        } else {
            // The remembered schedule indexes a table that no longer exists;
            // re-solve over the current one instead of replaying stale slots.
            schedule = active_optimizer_->Optimize(
                required, config_.control_cycle.seconds());
            last_schedule_ = schedule;
            last_schedule_version_ = table_version_;
            has_last_schedule_ = true;
        }
    }

    // Safe mode: even the best reachable configuration falls short of the
    // requirement. The optimizer already clamps the schedule to the
    // reachable ceiling, so the device dwells at its best feasible point —
    // bounded by the thermal cap — while the envelope is recorded.
    const bool safe_mode = required > active_table_->max_speedup() + 1e-9;
    if (safe_mode) {
        machine_.Dispatch(ControllerEvent::kTargetUnreachable);
        ++safe_mode_cycle_count_;
    }

    // (4) Actuate.
    Actuate(schedule);

    record->measured_gips = window.avg_gips;
    record->required_speedup = required;
    record->base_speed_estimate = regulator_.base_speed_estimate();
    record->expected_power_mw = schedule.expected_power_mw;
    record->low_config =
        active_table_->entries()[schedule.slots.front().entry_index].config;
    record->high_config =
        active_table_->entries()[schedule.slots.back().entry_index].config;
    record->perf_samples = window.samples;
    record->degraded = !usable;
    record->temp_c = platform_->thermals().ReadZoneTempC();
    record->cpu_cap_level =
        cpu_cap >= platform_->max_cpu_level() ? -1 : cpu_cap;
    record->safe_mode = safe_mode;
    record->measured_power_mw = measured_power_mw;
    record->stale_guard = stale_guard;
    return true;
}

}  // namespace aeo
