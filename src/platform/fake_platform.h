/**
 * @file
 * A scriptable Platform test double: no Device, no sysfs tree, no kernel
 * models — just queues of scripted telemetry and recorders for everything
 * the controller does. Lets OnlineController's mode logic (degraded mode,
 * safe-mode envelope, watchdog/probe/re-engage, clamp learning) be unit
 * tested hermetically, and documents exactly what a real-device backend
 * would have to provide.
 *
 * Scripting model: each Push... or Script... call appends or sets the value the
 * next matching controller call observes; unscripted calls see benign
 * defaults (healthy probe, no clamp, reference temperature, empty perf
 * window, on-time tick). Every interface call is counted or logged so
 * tests can assert on the controller's outward behaviour alone.
 */
#ifndef AEO_PLATFORM_FAKE_PLATFORM_H_
#define AEO_PLATFORM_FAKE_PLATFORM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "platform/clock.h"
#include "platform/platform.h"
#include "sim/simulator.h"

namespace aeo::platform {

/** Scriptable Actuator half of the fake (exposed for direct assertions). */
class FakeActuator final : public Actuator {
  public:
    void ConfigureActuation(SimTime min_dwell) override;
    void SetReadbackVerification(bool on) override { readback_ = on; }
    void Apply(const ActuationPlan& plan) override;
    void CancelPending() override { ++cancel_count_; }
    void ResetFailureTracking() override;
    int consecutive_failed_applies() const override
    {
        return consecutive_failed_applies_;
    }
    const std::vector<DwellDelivery>& cycle_deliveries() const override
    {
        return deliveries_;
    }
    const ActuationStats& stats() const override { return stats_; }
    bool ProbeActuationPath() override;

    // --- Scripting --------------------------------------------------------

    /** Makes consecutive_failed_applies() report @p n until changed. */
    void ScriptConsecutiveFailures(int n) { consecutive_failed_applies_ = n; }

    /** The deliveries every subsequent cycle drains (persistent clamp
     * evidence re-confirms each cycle, exactly like a thermal ceiling). */
    void ScriptDeliveries(std::vector<DwellDelivery> deliveries);

    /** Queues the outcome of the next recovery probe (default healthy). */
    void PushProbeResult(bool healthy) { probe_results_.push_back(healthy); }

    // --- Recorders --------------------------------------------------------

    uint64_t apply_count() const { return plans_.size(); }
    uint64_t cancel_count() const { return cancel_count_; }
    uint64_t reset_count() const { return reset_count_; }
    uint64_t probe_count() const { return probe_count_; }
    bool readback_verification() const { return readback_; }
    SimTime min_dwell() const { return min_dwell_; }

  private:
    std::vector<ActuationPlan> plans_;
    std::vector<DwellDelivery> deliveries_;
    std::deque<bool> probe_results_;
    ActuationStats stats_;
    SimTime min_dwell_ = SimTime::Millis(200);
    int consecutive_failed_applies_ = 0;
    uint64_t cancel_count_ = 0;
    uint64_t reset_count_ = 0;
    uint64_t probe_count_ = 0;
    bool readback_ = true;
};

/** The scriptable platform. Owns its own Simulator. */
class FakePlatform final : public Platform,
                           public Clock,
                           public PerfReader,
                           public GovernorControl,
                           public Thermals {
  public:
    FakePlatform() = default;

    /** The simulator the fake's clock runs on (tests drive it). */
    Simulator& sim() { return sim_; }

    // --- Platform ---------------------------------------------------------
    Clock& clock() override { return *this; }
    PerfReader& perf() override { return *this; }
    Actuator& actuator() override { return actuator_; }
    GovernorControl& governors() override { return *this; }
    Thermals& thermals() override { return *this; }
    /** The Nexus 6's top CPU level; the fake has one cluster. */
    int max_cpu_level() const override { return 17; }
    void SetControllerOverheadPower(double mw) override
    {
        overhead_mw_ = mw;
    }
    void Sync() override {}

    // --- Clock ------------------------------------------------------------
    SimTime Now() override { return sim_.Now(); }
    TickHandle ScheduleTick(SimTime when, std::function<void()> fn) override;
    void CancelTick(TickHandle handle) override { sim_.Cancel(handle); }

    // --- PerfReader -------------------------------------------------------
    void StartSampling() override { sampling_ = true; }
    void StopSampling() override { sampling_ = false; }
    PerfWindow DrainWindow() override;
    double DrainAveragePowerMw() override;

    // --- GovernorControl --------------------------------------------------
    void PinForControl(bool bandwidth, bool gpu) override;
    // aeo-lint: allow(hot-path-alloc) -- test double: the governor log
    // is its observable output.
    void RestoreStock() override { governor_log_.push_back("restore-stock"); }

    // --- Thermals ---------------------------------------------------------
    double ReadZoneTempC() override { return temp_c_; }
    int ReadCpuCapLevel() override { return cap_level_; }

    // --- Scripting --------------------------------------------------------

    /** Queues one perf window; drained FIFO. An exhausted queue serves
     * empty windows (every sample dropped). */
    void
    PushPerfWindow(double avg_gips, uint64_t samples)
    {
        perf_windows_.push_back(PerfWindow{avg_gips, samples});
    }

    /** Queues one measured-power window; an exhausted queue serves 0. */
    void PushPowerMw(double mw) { power_windows_.push_back(mw); }

    /** Queues how late the next scheduled tick fires; drained FIFO. An
     * exhausted queue fires ticks on their deadline. */
    void PushTickDelay(SimTime delay) { tick_delays_.push_back(delay); }

    void ScriptTempC(double temp_c) { temp_c_ = temp_c; }

    /** Sets the cap level every cap read reports (kNoCapLevel = uncapped). */
    void ScriptCpuCapLevel(int level) { cap_level_ = level; }

    // --- Recorders --------------------------------------------------------

    FakeActuator& fake_actuator() { return actuator_; }
    bool sampling() const { return sampling_; }
    double overhead_mw() const { return overhead_mw_; }
    /** Chronological log of governor transitions, e.g. "pin(bw=1,gpu=0)". */
    const std::vector<std::string>& governor_log() const
    {
        return governor_log_;
    }

  private:
    Simulator sim_;
    FakeActuator actuator_;
    std::deque<PerfWindow> perf_windows_;
    std::deque<double> power_windows_;
    std::deque<SimTime> tick_delays_;
    std::vector<std::string> governor_log_;
    double temp_c_ = 25.0;
    int cap_level_ = kNoCapLevel;
    double overhead_mw_ = 0.0;
    bool sampling_ = false;
};

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_FAKE_PLATFORM_H_
