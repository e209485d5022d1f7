#include "chaos/invariant_monitor.h"

#include "common/strings.h"

namespace aeo::chaos {

namespace {

constexpr size_t kViolationCap = 64;

}  // namespace

void
InvariantMonitor::Report(uint64_t cycle, double time_s, std::string message)
{
    if (violations_.size() >= kViolationCap) {
        return;
    }
    violations_.push_back(Violation{cycle, time_s, std::move(message)});
}

// --- thermal-envelope -------------------------------------------------------

ThermalEnvelopeMonitor::ThermalEnvelopeMonitor()
    : InvariantMonitor("thermal-envelope")
{
}

void
ThermalEnvelopeMonitor::OnCycle(const CycleContext& context)
{
    if (context.record->temp_c > kLimitC) {
        Report(context.cycle_index, context.record->time_s,
               StrFormat("zone temperature %.1f C exceeds the %.1f C "
                         "never-exceed envelope",
                         context.record->temp_c, kLimitC));
    }
}

// --- qos-violation-run ------------------------------------------------------

QosViolationRunMonitor::QosViolationRunMonitor()
    : InvariantMonitor("qos-violation-run")
{
}

void
QosViolationRunMonitor::OnCycle(const CycleContext& context)
{
    const ControlCycleRecord& record = *context.record;
    // Only cycles where the controller *believes* it is meeting the target
    // count: degraded cycles have no trustworthy measurement, safe-mode
    // cycles have declared the target unreachable, and fallback cycles do
    // not control at all. A long shortfall run outside those modes means
    // the loop is silently failing its contract.
    if (record.degraded || record.safe_mode || context.fallback_engaged) {
        run_ = 0;
        reported_this_run_ = false;
        return;
    }
    const bool shortfall =
        record.measured_gips <
        (1.0 - kToleranceFrac) * context.target_gips;
    if (!shortfall) {
        run_ = 0;
        reported_this_run_ = false;
        return;
    }
    ++run_;
    if (run_ > kMaxRun && !reported_this_run_) {
        reported_this_run_ = true;
        Report(context.cycle_index, record.time_s,
               StrFormat("measured %.2f GIPS stayed >%.0f%% under the "
                         "%.2f GIPS target for %d consecutive healthy "
                         "cycles (bound %d)",
                         record.measured_gips, kToleranceFrac * 100.0,
                         context.target_gips, run_, kMaxRun));
    }
}

// --- actuation-consistency --------------------------------------------------

ActuationConsistencyMonitor::ActuationConsistencyMonitor()
    : InvariantMonitor("actuation-consistency")
{
}

void
ActuationConsistencyMonitor::OnCycle(const CycleContext& context)
{
    const auto check = [&](const platform::ActuationDelivery& delivery,
                           const char* subsystem) {
        if (delivery.verified && !delivery.attempted) {
            Report(context.cycle_index, context.record->time_s,
                   StrFormat("%s delivery verified without being attempted",
                             subsystem));
        }
        if (delivery.verified && !delivery.write_ok) {
            Report(context.cycle_index, context.record->time_s,
                   StrFormat("%s delivery verified although the write "
                             "failed",
                             subsystem));
        }
        if (delivery.verified &&
            delivery.delivered_level > delivery.requested_level) {
            Report(context.cycle_index, context.record->time_s,
                   StrFormat("%s delivered level %d above the requested "
                             "level %d — read-back and actuation disagree "
                             "upward",
                             subsystem, delivery.delivered_level,
                             delivery.requested_level));
        }
    };
    for (const platform::DwellDelivery& dwell : *context.deliveries) {
        check(dwell.cpu, "cpu");
        check(dwell.bw, "bw");
        check(dwell.gpu, "gpu");
        if (dwell.cpu.attempted &&
            dwell.cpu.requested_level > context.max_cpu_level) {
            Report(context.cycle_index, context.record->time_s,
                   StrFormat("cpu request level %d above the platform "
                             "ceiling %d",
                             dwell.cpu.requested_level,
                             context.max_cpu_level));
        }
    }

    // Belief vs ground truth: the cap the controller planned this cycle's
    // feasible set against must track the cap the kernel advertises. The
    // believed-below-advertised direction is benign (read-back learning is
    // deliberately conservative); believed-above-advertised beyond the
    // poll-race grace means the mask admits rows the device cannot run.
    // A fallback tick ends the episode: the stock governors run the device,
    // and a fallback engaged before steering planned under no cap at all.
    const int ceiling = context.max_cpu_level;
    const int believed = context.record->cpu_cap_level < 0
                             ? ceiling
                             : context.record->cpu_cap_level;
    const int advertised = context.true_cpu_cap_level >= ceiling
                               ? ceiling
                               : context.true_cpu_cap_level;
    if (believed > advertised && !context.fallback_engaged) {
        ++divergence_run_;
        if (divergence_run_ > kCapBeliefGraceCycles && !reported_divergence_) {
            reported_divergence_ = true;
            Report(context.cycle_index, context.record->time_s,
                   StrFormat("controller believes cpu cap level %d while "
                             "the kernel advertises %d — the feasible-set "
                             "mask admits unreachable rows (%d consecutive "
                             "cycles, grace %d)",
                             believed, advertised, divergence_run_,
                             kCapBeliefGraceCycles));
        }
    } else {
        divergence_run_ = 0;
        reported_divergence_ = false;
    }
}

// --- state-legality ---------------------------------------------------------

StateLegalityMonitor::StateLegalityMonitor()
    : InvariantMonitor("state-legality")
{
}

void
StateLegalityMonitor::OnCycle(const CycleContext& context)
{
    if (context.illegal_dispatches > last_illegal_) {
        Report(context.cycle_index, context.record->time_s,
               StrFormat("illegal-dispatch counter rose to %llu",
                         static_cast<unsigned long long>(
                             context.illegal_dispatches)));
    }
    last_illegal_ = context.illegal_dispatches;

    const bool fallback_state =
        context.state == ControllerState::kProbe ||
        context.state == ControllerState::kFallbackStock;
    if (context.fallback_engaged != fallback_state) {
        Report(context.cycle_index, context.record->time_s,
               StrFormat("fallback flag %d disagrees with state %s",
                         context.fallback_engaged ? 1 : 0,
                         ControllerStateName(context.state)));
    }
}

// --- watchdog-liveness ------------------------------------------------------

WatchdogLivenessMonitor::WatchdogLivenessMonitor()
    : InvariantMonitor("watchdog-liveness")
{
}

void
WatchdogLivenessMonitor::OnCycle(const CycleContext& context)
{
    if (context.fallback_engaged && !saw_fallback_) {
        saw_fallback_ = true;
        fallback_cycle_ = context.cycle_index;
        fallback_at_s_ = context.record->time_s;
    }
}

void
WatchdogLivenessMonitor::OnFinish(const FinishContext& context)
{
    if (!saw_fallback_ && !context.fallback_engaged) {
        return;
    }
    if (!context.reengage_enabled) {
        return;  // Terminal fallback is the configured behaviour.
    }
    // A fallback that Start() engaged before the first tick dates from the
    // campaign's start (fallback_at_s_ stays 0).
    const double fallback_span_s = context.elapsed_s - fallback_at_s_;
    if (context.probe_period_s <= 0.0 ||
        fallback_span_s < kGracePeriods * context.probe_period_s) {
        return;  // The run ended before a probe was due.
    }
    if (context.probes == 0) {
        Report(fallback_cycle_, fallback_at_s_,
               StrFormat("watchdog fallback at cycle %llu never re-probed "
                         "the actuation path in %.0f s (probe period "
                         "%.0f s) — degraded mode must not be a silent "
                         "grave",
                         static_cast<unsigned long long>(fallback_cycle_),
                         fallback_span_s, context.probe_period_s));
    }
}

// --- deadline-miss-run ------------------------------------------------------

DeadlineMissRunMonitor::DeadlineMissRunMonitor()
    : InvariantMonitor("deadline-miss-run")
{
}

void
DeadlineMissRunMonitor::OnCycle(const CycleContext& context)
{
    const ControlCycleRecord& record = *context.record;
    // A fallback is the controller *reacting* to the storm — exactly the
    // bounded behaviour the invariant demands — so it resets the run.
    if (context.fallback_engaged ||
        record.tick_kind != platform::TickKind::kMissed) {
        run_ = 0;
        reported_this_run_ = false;
        return;
    }
    ++run_;
    if (run_ > kMaxRun && !reported_this_run_) {
        reported_this_run_ = true;
        Report(context.cycle_index, record.time_s,
               StrFormat("control tick missed its deadline %d cycles in a "
                         "row (bound %d, last lateness %.2f s) without "
                         "degrading to the stock governors",
                         run_, kMaxRun, record.tick_lateness_s));
    }
}

// --- stale-actuation --------------------------------------------------------

StaleActuationMonitor::StaleActuationMonitor()
    : InvariantMonitor("stale-actuation")
{
}

void
StaleActuationMonitor::OnCycle(const CycleContext& context)
{
    const ControlCycleRecord& record = *context.record;
    // A cycle resuming after a suspend gap drained a perf window that
    // accumulated before the sleep — data epochs_skipped epochs old. The
    // controller must quarantine it (stale guard engaged, cycle degraded);
    // steering the actuation on it is the stale-actuation bug.
    if (record.tick_kind != platform::TickKind::kSuspendGap ||
        context.fallback_engaged) {
        return;
    }
    if (record.perf_samples > 0 && !record.stale_guard && !record.degraded) {
        Report(context.cycle_index, record.time_s,
               StrFormat("cycle resumed from a %.0f-epoch suspend gap "
                         "(lateness %.1f s) and actuated on the pre-suspend "
                         "perf window (%llu samples) — stale data older "
                         "than one epoch steered the loop",
                         static_cast<double>(record.epochs_skipped),
                         record.tick_lateness_s,
                         static_cast<unsigned long long>(
                             record.perf_samples)));
    }
}

std::vector<std::unique_ptr<InvariantMonitor>>
MakeDefaultMonitors()
{
    std::vector<std::unique_ptr<InvariantMonitor>> monitors;
    monitors.push_back(std::make_unique<ThermalEnvelopeMonitor>());
    monitors.push_back(std::make_unique<QosViolationRunMonitor>());
    monitors.push_back(std::make_unique<ActuationConsistencyMonitor>());
    monitors.push_back(std::make_unique<StateLegalityMonitor>());
    monitors.push_back(std::make_unique<WatchdogLivenessMonitor>());
    monitors.push_back(std::make_unique<DeadlineMissRunMonitor>());
    monitors.push_back(std::make_unique<StaleActuationMonitor>());
    return monitors;
}

}  // namespace aeo::chaos
