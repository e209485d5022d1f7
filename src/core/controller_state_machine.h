/**
 * @file
 * The controller's operating mode as one explicit state machine. The mode
 * logic used to live in overlapping booleans and counters spread through
 * OnlineController (`fallback_engaged_`, per-cycle `degraded`/`safe_mode`
 * flags, `probe_successes_`); every legal mode change is now a row in a
 * single transition table, and every illegal (state, event) pair is
 * rejected loudly instead of silently mutating a flag.
 *
 * States:
 *
 *  - NORMAL         — closed-loop control on a plausible measurement.
 *  - DEGRADED       — controlling, but the last measurement was missing or
 *                     garbage: the Kalman estimate holds and the previous
 *                     schedule is reused.
 *  - SAFE_MODE      — controlling, but even the best reachable operating
 *                     point cannot meet the target; the device dwells at
 *                     the feasible ceiling while the envelope is recorded.
 *  - PROBE          — the watchdog tripped and the stock governors rule;
 *                     the actuation path is probed periodically and control
 *                     re-engages after a quorum of healthy probes.
 *  - FALLBACK_STOCK — the watchdog tripped with re-engagement disabled (or
 *                     control was stopped for good); terminal.
 *
 * The machine is a pure mode tracker: it decides *what state control is
 * in*, never *what to do about it* — actuation, counter bumps and record
 * keeping stay in OnlineController, which dispatches events at exactly the
 * points where it used to mutate the flags.
 */
#ifndef AEO_CORE_CONTROLLER_STATE_MACHINE_H_
#define AEO_CORE_CONTROLLER_STATE_MACHINE_H_

#include <cstdint>

namespace aeo {

/** Operating mode of the online controller. */
enum class ControllerState {
    kNormal,
    kDegraded,
    kSafeMode,
    kProbe,
    kFallbackStock,
};

inline constexpr int kControllerStateCount = 5;

/** Everything that can move the controller between modes. */
enum class ControllerEvent {
    /** A control cycle began while control is engaged. */
    kCycleStart,
    /** The perf window was plausible; closed-loop regulation ran. */
    kPerfReadOk,
    /** The perf window was empty or implausible; the cycle ran degraded. */
    kPerfReadFailed,
    /** Read-back saw a delivered level below the request (clamp evidence,
     * not yet trusted). */
    kActuationMismatch,
    /** Clamp evidence persisted for cap_confirm_cycles; the feasible set
     * is now masked. */
    kClampConfirmed,
    /** A learned clamp went unconfirmed for kCapRecheckCycles and was
     * dropped; the full table is feasible again. */
    kCapExpired,
    /** The drift detector applied a correction to the working table. */
    kDriftCorrected,
    /** The required speedup exceeds the reachable ceiling. */
    kTargetUnreachable,
    /** No profiled configuration is reachable under the active caps. */
    kFeasibleSetEmpty,
    /** K consecutive cycles failed to actuate. */
    kWatchdogTrip,
    /** A recovery probe of the actuation path came back healthy. */
    kProbeOk,
    /** A recovery probe failed at the transport level. */
    kProbeFailed,
    /** Stop() — control wound down by the experiment driver. */
    kControlStopped,
    /** The control tick ran late but within the jitter tolerance. */
    kTickJitter,
    /** The control tick slipped past its epoch (deadline miss). */
    kTickMissed,
    /** The tick arrived after a suspend-length gap; estimators must not
     * treat the gap as a measurement window. */
    kSuspendResume,
    /** K consecutive deadline misses — temporal analogue of a watchdog
     * trip: control cannot hold its epoch, so the stock governors rule. */
    kDeadlineStorm,
};

inline constexpr int kControllerEventCount = 17;

const char* ControllerStateName(ControllerState state);
const char* ControllerEventName(ControllerEvent event);

/** Re-engagement tuning the machine needs to resolve a watchdog trip. */
struct StateMachineOptions {
    /** Probe-and-re-engage after a trip; off, the fallback is terminal. */
    bool reengage = true;
    /** Consecutive healthy probes required to leave PROBE. */
    int reengage_successes = 3;
};

/** The result of dispatching one event. */
struct StateTransition {
    /** The state after the event. */
    ControllerState state;
    /** False iff the (state, event) pair is not in the transition table
     * (the machine stays put and the dispatch is counted). */
    bool legal;
    /** True iff the state changed. */
    bool changed;
};

/** The mode tracker. Deterministic, allocation-free, no I/O. */
class ControllerStateMachine {
  public:
    explicit ControllerStateMachine(
        StateMachineOptions options = {},
        ControllerState initial = ControllerState::kNormal);

    /** Feeds one event through the transition table. */
    StateTransition Dispatch(ControllerEvent event);

    ControllerState state() const { return state_; }

    /** True while the stock governors rule (PROBE or FALLBACK_STOCK). */
    bool fallback_engaged() const
    {
        return state_ == ControllerState::kProbe ||
               state_ == ControllerState::kFallbackStock;
    }

    /** True while the control cycle runs (NORMAL/DEGRADED/SAFE_MODE). */
    bool control_engaged() const { return !fallback_engaged(); }

    /** Healthy probes accumulated toward the re-engagement quorum. */
    int probe_successes() const { return probe_successes_; }

    /** Dispatches that named a pair outside the transition table. */
    uint64_t illegal_dispatch_count() const { return illegal_dispatches_; }

    /**
     * What the table says about a (state, event) pair, without dispatching:
     * the successor state, or @p state itself for pairs that stay put.
     * Returns false for pairs outside the table (@p next untouched). The
     * quorum-dependent PROBE × kProbeOk pair reports the quorum-met
     * successor (NORMAL). Exposed so tests can cover the entire table.
     */
    static bool ActionFor(ControllerState state, ControllerEvent event,
                          const StateMachineOptions& options,
                          ControllerState* next);

  private:
    StateMachineOptions options_;
    ControllerState state_;
    int probe_successes_ = 0;
    uint64_t illegal_dispatches_ = 0;
};

}  // namespace aeo

#endif  // AEO_CORE_CONTROLLER_STATE_MACHINE_H_
