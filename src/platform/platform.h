/**
 * @file
 * The hardware-abstraction boundary between resource-management *policy*
 * (the online controller's regulator → optimizer → scheduler pipeline) and
 * the *platform* that measures and actuates (sysfs, PMU, governors,
 * thermal zones). Four narrow interfaces cover everything the control loop
 * needs:
 *
 *  - PerfReader      — GIPS/PMU sampling windows and measured power,
 *  - Actuator        — apply a resolved dwell plan, report delivery and
 *                      silent clamps, probe the actuation path,
 *  - GovernorControl — pin the userspace governors / restore stock ones,
 *  - Thermals        — zone temperature and frequency-cap read-back.
 *
 * A Platform aggregates the four plus the time seam the control tick runs
 * on (Clock, clock.h). SimPlatform (sim_platform.h) implements them over
 * the simulated Nexus 6's sysfs tree; FakePlatform (fake_platform.h) is a
 * scriptable test double that needs no sysfs at all. Policy code includes
 * only this header — never a src/kernel/ or src/device/ one — which is
 * what lets the controller port to other backends and be unit-tested
 * hermetically.
 */
#ifndef AEO_PLATFORM_PLATFORM_H_
#define AEO_PLATFORM_PLATFORM_H_

#include <cstdint>
#include <vector>

#include "platform/actuation_types.h"
#include "sim/time.h"

namespace aeo::platform {

/**
 * Sentinel CPU/bandwidth cap level meaning "no cap in effect". Far above
 * any real level index so callers can combine caps with std::min.
 */
inline constexpr int kNoCapLevel = 1 << 20;

/** One measurement window of perf samples. */
struct PerfWindow {
    /** Average GIPS of the window's samples; 0 when none arrived. */
    double avg_gips = 0.0;
    /** Samples that actually arrived in the window. The controller treats
     * an empty window (all samples dropped) as "no measurement". */
    uint64_t samples = 0;
};

/** Performance/power telemetry for the control loop. */
class PerfReader {
  public:
    virtual ~PerfReader() = default;

    /** Starts periodic perf sampling. */
    virtual void StartSampling() = 0;

    /** Stops perf sampling. */
    virtual void StopSampling() = 0;

    /** Drains and returns the samples since the last drain. */
    virtual PerfWindow DrainWindow() = 0;

    /** Average measured device power since the last drain, mW. */
    virtual double DrainAveragePowerMw() = 0;
};

/** Applies dwell plans to the device and reports what was delivered. */
class Actuator {
  public:
    virtual ~Actuator() = default;

    /**
     * Sets the minimum dwell the actuator applies plans under. Called once
     * by the controller at construction, before any Apply().
     */
    virtual void ConfigureActuation(SimTime min_dwell) = 0;

    /**
     * Enables/disables post-write read-back verification. Verification
     * re-reads each subsystem's current operating point after every
     * accepted write and records requested-vs-delivered levels, exposing
     * silent clamps that a write-only actuator cannot see.
     */
    virtual void SetReadbackVerification(bool on) = 0;

    /**
     * Quantizes the plan's dwells to the minimum-dwell grid (preserving
     * the cycle total) and schedules the writes over the coming cycle.
     * Starts a new actuation cycle for failure accounting: the previous
     * cycle's outcome is folded into consecutive_failed_applies() first.
     */
    virtual void Apply(const ActuationPlan& plan) = 0;

    /** Cancels configuration switches still pending from the current
     * cycle (used when the controller hands the device back to the stock
     * governors). */
    virtual void CancelPending() = 0;

    /** Clears the consecutive-failure accounting (used when the watchdog
     * re-engages control: old strikes must not count against the fresh
     * start). */
    virtual void ResetFailureTracking() = 0;

    /**
     * Number of Apply() cycles in a row — including the current one —
     * whose actuation failed (at least one write exhausted its retries).
     */
    virtual int consecutive_failed_applies() const = 0;

    /** Delivery records accumulated since the last Apply() opened a
     * cycle. The controller drains them at the next cycle boundary to
     * learn what the device actually ran. */
    virtual const std::vector<DwellDelivery>& cycle_deliveries() const = 0;

    /** Actuation health counters. */
    virtual const ActuationStats& stats() const = 0;

    /**
     * One recovery probe of the actuation path after a watchdog fallback:
     * pokes the one node control cannot live without and reports whether
     * the path is alive (a value rejection still proves liveness;
     * transport-level errors do not).
     */
    virtual bool ProbeActuationPath() = 0;
};

/** Pins and restores the frequency governors around a control session. */
class GovernorControl {
  public:
    virtual ~GovernorControl() = default;

    /**
     * Takes the device over for userspace control: the CPU governor goes
     * to userspace; the bus and GPU follow only when the controller owns
     * them (@p bandwidth / @p gpu), and otherwise are pinned to their
     * stock governors so they keep deciding independently.
     */
    virtual void PinForControl(bool bandwidth, bool gpu) = 0;

    /** Best-effort restore of the stock governors on every subsystem. */
    virtual void RestoreStock() = 0;
};

/** Temperature and thermal-cap telemetry. */
class Thermals {
  public:
    virtual ~Thermals() = default;

    /** Zone temperature, °C; the leakage reference when unexposed. */
    virtual double ReadZoneTempC() = 0;

    /**
     * The advertised CPU frequency ceiling as a level index, or
     * kNoCapLevel when uncapped (an unreadable ceiling is not evidence of
     * a clamp).
     */
    virtual int ReadCpuCapLevel() = 0;
};

class Clock;

/** The full platform a controller runs against. */
class Platform {
  public:
    virtual ~Platform() = default;

    /**
     * Monotonic time and control-tick scheduling as the control loop is
     * allowed to see them. Policy code must read time and arm ticks here —
     * never on a simulator — so chaos decorators can step the clock or
     * delay ticks under it (DESIGN.md §13).
     */
    virtual Clock& clock() = 0;

    virtual PerfReader& perf() = 0;
    virtual Actuator& actuator() = 0;
    virtual GovernorControl& governors() = 0;
    virtual Thermals& thermals() = 0;

    /** Highest CPU frequency level the platform exposes (primary/big
     * cluster on heterogeneous SoCs). */
    virtual int max_cpu_level() const = 0;

    /** Number of CPU frequency domains (1 on homogeneous SoCs like the
     * paper's Nexus 6; 2 on big.LITTLE). */
    virtual int num_cpu_clusters() const { return 1; }

    /** Highest LITTLE-cluster frequency level, or -1 when the platform has
     * no LITTLE cluster (the homogeneous default). */
    virtual int max_little_level() const { return -1; }

    /** Charges the controller's own compute/actuation power to the
     * plant (§V-A1); 0 stops charging. */
    virtual void SetControllerOverheadPower(double mw) = 0;

    /** Flushes plant integration up to the current simulated time (call
     * before reading meters outside an event). */
    virtual void Sync() = 0;
};

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_PLATFORM_H_
