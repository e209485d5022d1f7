/**
 * @file
 * Runtime invariant monitors for chaos campaigns.
 *
 * A monitor is a passive observer of the control loop: the campaign runner
 * feeds it one CycleContext per completed control cycle (via the
 * controller's cycle-observer seam) and one FinishContext when the
 * campaign ends. A monitor never influences the run — it only records
 * violations, each with the cycle index and a human-readable context
 * message, so a failing campaign pinpoints *when* the property first broke
 * and the shrinker has a yes/no oracle to minimize against.
 *
 * The catalogue (DESIGN.md §12):
 *
 *  - thermal-envelope   — zone temperature never exceeds the 55 °C
 *                         envelope.
 *  - qos-violation-run  — while the controller *believes* it is meeting the
 *                         target (not degraded/safe-mode/fallback), the
 *                         measured shortfall never persists longer than a
 *                         bounded run of cycles.
 *  - actuation-consistency — delivery read-backs are internally coherent:
 *                         never verified without a successful write, never
 *                         delivered *above* the requested level — and the
 *                         cap the controller planned against never stays
 *                         *above* the cap the kernel advertises for longer
 *                         than a short read/poll race.
 *  - state-legality     — the mode machine never counts an illegal
 *                         dispatch, and fallback_engaged() agrees with the
 *                         state being PROBE/FALLBACK_STOCK.
 *  - watchdog-liveness  — a watchdog fallback always eventually re-probes
 *                         the actuation path (degraded mode is never a
 *                         silent grave).
 *  - deadline-miss-run  — consecutive deadline-missed cycles stay bounded:
 *                         past the bound the controller must have degraded
 *                         to the stock governors instead of limping on.
 *  - stale-actuation    — no actuation is computed from performance data
 *                         older than one epoch: a cycle that resumed after
 *                         a suspend gap must quarantine its measurement
 *                         (stale guard / degraded), never steer on it.
 *
 * Every InvariantMonitor subclass must be registered in the monitor
 * catalogue test (tests/chaos/invariant_monitor_test.cc) — enforced by the
 * aeo-lint `monitor-catalogue` rule.
 */
#ifndef AEO_CHAOS_INVARIANT_MONITOR_H_
#define AEO_CHAOS_INVARIANT_MONITOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller_state_machine.h"
#include "core/online_controller.h"
#include "kernel/msm_thermal.h"
#include "platform/actuation_types.h"
#include "platform/platform.h"

namespace aeo::chaos {

/** Everything a monitor may inspect about one completed control cycle. */
struct CycleContext {
    /** 0-based index of the completed cycle. */
    uint64_t cycle_index = 0;
    /** The cycle's record (non-null). */
    const ControlCycleRecord* record = nullptr;
    /** Delivery read-backs the cycle consumed (non-null, may be empty). */
    const std::vector<platform::DwellDelivery>* deliveries = nullptr;
    /** Mode machine state after the cycle. */
    ControllerState state = ControllerState::kNormal;
    /** Illegal-dispatch counter after the cycle. */
    uint64_t illegal_dispatches = 0;
    /** Controller's fallback flag after the cycle. */
    bool fallback_engaged = false;
    /** The performance target the controller regulates to. */
    double target_gips = 0.0;
    /** The platform's highest CPU level (cap sanity bound). */
    int max_cpu_level = 0;
    /**
     * Ground truth: the CPU cap the kernel actually advertises this cycle
     * (msm_thermal's staged cap), read by the harness outside the
     * controller's — possibly lying — platform seam. kNoCapLevel when the
     * device is thermally unconstrained or the harness has no independent
     * cap source (then the belief-divergence check stays quiet).
     */
    int true_cpu_cap_level = platform::kNoCapLevel;
    /** Configured control period, seconds (for lateness-derived checks). */
    double control_period_s = 0.0;
};

/** End-of-campaign summary for liveness-style invariants. */
struct FinishContext {
    uint64_t cycles = 0;
    bool fallback_engaged = false;
    bool reengage_enabled = false;
    /** Recovery probes of the actuation path over the whole run. */
    uint64_t probes = 0;
    uint64_t reengage_count = 0;
    /** Campaign length, seconds of simulated time. */
    double elapsed_s = 0.0;
    /** Configured probe period, seconds. */
    double probe_period_s = 0.0;
    /** Clock time the last fallback engaged, seconds; -1 when none. A
     * storm-triggered fallback aborts its cycle before the observer hook,
     * so OnCycle may never witness the engagement. */
    double fallback_time_s = -1.0;
};

/** One recorded invariant violation. */
struct Violation {
    uint64_t cycle = 0;
    double time_s = 0.0;
    std::string message;
};

/** Base class: violation bookkeeping shared by every monitor. */
class InvariantMonitor {
  public:
    explicit InvariantMonitor(std::string name) : name_(std::move(name)) {}
    virtual ~InvariantMonitor() = default;

    InvariantMonitor(const InvariantMonitor&) = delete;
    InvariantMonitor& operator=(const InvariantMonitor&) = delete;

    /** Stable monitor name (the catalogue key). */
    const std::string& name() const { return name_; }

    /** Inspects one completed control cycle. */
    virtual void OnCycle(const CycleContext& context) = 0;

    /** Inspects the finished campaign (liveness checks). */
    virtual void OnFinish(const FinishContext& context) { (void)context; }

    /** All recorded violations, in cycle order (capped at 64). */
    const std::vector<Violation>& violations() const { return violations_; }

    bool ok() const { return violations_.empty(); }

    /** Cycle of the first violation, or -1 when clean. */
    int64_t first_violation_cycle() const
    {
        return violations_.empty()
                   ? -1
                   : static_cast<int64_t>(violations_.front().cycle);
    }

  protected:
    /** Records a violation (silently dropped once the cap is reached). */
    void Report(uint64_t cycle, double time_s, std::string message);

  private:
    std::string name_;
    std::vector<Violation> violations_;
};

/** temp_c <= kLimitC on every cycle. */
class ThermalEnvelopeMonitor final : public InvariantMonitor {
  public:
    /** Never-exceed zone temperature, °C: above msm_thermal's throttling
     * trigger, so the driver must contain what it is designed to contain. */
    static constexpr double kLimitC = 55.0;
    static_assert(kLimitC > MsmThermalParams{}.trigger_temp_c,
                  "the envelope must sit above the throttling trigger");

    ThermalEnvelopeMonitor();
    void OnCycle(const CycleContext& context) override;
};

/** Bounded runs of measured shortfall while control claims to be healthy. */
class QosViolationRunMonitor final : public InvariantMonitor {
  public:
    /** Longest tolerated run of consecutive under-target cycles while the
     * controller believes it is meeting the target. */
    static constexpr int kMaxRun = 15;
    /** Relative shortfall below target counting as a QoS violation. */
    static constexpr double kToleranceFrac = 0.25;
    static_assert(kMaxRun > 0, "QoS run bound must be positive");

    QosViolationRunMonitor();
    void OnCycle(const CycleContext& context) override;

  private:
    int run_ = 0;
    bool reported_this_run_ = false;
};

/** Delivery read-backs are coherent; believed cap tracks the kernel's. */
class ActuationConsistencyMonitor final : public InvariantMonitor {
  public:
    /**
     * Consecutive cycles the controller's believed CPU cap may sit above
     * the kernel's advertised cap before it counts as a feasible-set-mask
     * violation. The cap is polled mid-cycle and the ground truth read at
     * cycle end, so a staged descent legitimately diverges for a cycle or
     * two; a mask bug diverges for the whole throttled window.
     */
    static constexpr int kCapBeliefGraceCycles = 2;
    static_assert(kCapBeliefGraceCycles >= 0,
                  "cap-belief grace must be non-negative");

    ActuationConsistencyMonitor();
    void OnCycle(const CycleContext& context) override;

  private:
    int divergence_run_ = 0;
    bool reported_divergence_ = false;
};

/** No illegal dispatches; fallback flag <=> PROBE/FALLBACK_STOCK. */
class StateLegalityMonitor final : public InvariantMonitor {
  public:
    StateLegalityMonitor();
    void OnCycle(const CycleContext& context) override;

  private:
    uint64_t last_illegal_ = 0;
};

/** A watchdog fallback always eventually re-probes. */
class WatchdogLivenessMonitor final : public InvariantMonitor {
  public:
    /** Grace period (in probe periods) before a fallback with zero probes
     * counts as a liveness violation. */
    static constexpr double kGracePeriods = 2.0;

    WatchdogLivenessMonitor();
    void OnCycle(const CycleContext& context) override;
    void OnFinish(const FinishContext& context) override;

  private:
    bool saw_fallback_ = false;
    uint64_t fallback_cycle_ = 0;
    double fallback_time_s_ = 0.0;
};

/** Bounded runs of missed deadlines: past the bound, control must yield. */
class DeadlineMissRunMonitor final : public InvariantMonitor {
  public:
    /**
     * Longest tolerated run of consecutive deadline-missed cycles without
     * the controller degrading to the stock governors. Must sit above the
     * controller's deadline_storm_threshold or healthy storms would be
     * flagged before the controller is allowed to react.
     */
    static constexpr int kMaxRun = 6;
    static_assert(kMaxRun > ControllerConfig{}.deadline_storm_threshold,
                  "the miss-run bound must let the deadline storm react first");

    DeadlineMissRunMonitor();
    void OnCycle(const CycleContext& context) override;

  private:
    int run_ = 0;
    bool reported_this_run_ = false;
};

/** No actuation computed from perf data older than one epoch. */
class StaleActuationMonitor final : public InvariantMonitor {
  public:
    StaleActuationMonitor();
    void OnCycle(const CycleContext& context) override;
};

/** The full catalogue, one instance of each monitor. */
std::vector<std::unique_ptr<InvariantMonitor>> MakeDefaultMonitors();

}  // namespace aeo::chaos

#endif  // AEO_CHAOS_INVARIANT_MONITOR_H_
