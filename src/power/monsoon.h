/**
 * @file
 * Simulated Monsoon power monitor.
 *
 * The paper measures whole-device power with a Monsoon monitor sampling at
 * 5 kHz (§IV-A). This model samples the device's instantaneous power at the
 * same rate, applies Gaussian measurement noise, and reports the running
 * average. Experiments read their "measured" power from here — exactly as
 * the authors did — while the exact EnergyMeter integral remains available
 * for validation.
 *
 * The monitor runs on the simulator's sample clock and records the ticks in
 * blocks, one per catch-up (CatchUp), with one noise draw per block: the
 * sum of k per-sample errors has exactly the law of one error scaled by
 * sqrt(k). An attached FaultInjector decides the block's ticks in tick
 * order at catch-up time, in one OnReadBlock() call, and its sync hook
 * catches the monitor up before any other operation, so the injector sees
 * every operation in the order a per-sample event would give it (DESIGN.md
 * §14 "Batched power sampling").
 */
#ifndef AEO_POWER_MONSOON_H_
#define AEO_POWER_MONSOON_H_

#include <array>
#include <functional>

#include "common/random.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace aeo {

/** Injector path guarding power-meter samples. */
inline constexpr const char kMonsoonFaultPath[] = "/dev/monsoon/sample";

/** Configuration of the simulated power monitor. */
struct MonsoonConfig {
    /** Sampling frequency, Hz (the real instrument samples at 5 kHz). */
    double sample_hz = 5000.0;
    /** Relative standard deviation of per-sample measurement noise. */
    double noise_rel_stddev = 0.004;
};

/** Samples a power source periodically and accumulates statistics. */
class MonsoonMonitor {
  public:
    /**
     * @param sim          The simulator driving time; must outlive this.
     * @param power_source Returns the device's instantaneous true power.
     * @param rng_seed     Seed for the measurement-noise stream.
     * @param config       Sampling parameters.
     */
    MonsoonMonitor(Simulator* sim, std::function<Milliwatts()> power_source,
                   uint64_t rng_seed, MonsoonConfig config = {});

    ~MonsoonMonitor();

    MonsoonMonitor(const MonsoonMonitor&) = delete;
    MonsoonMonitor& operator=(const MonsoonMonitor&) = delete;

    /** Starts sampling on the simulator's sample clock. */
    void Start();

    /** Stops sampling. */
    void Stop();

    /**
     * Records the sample-clock ticks passed since the previous call, all at
     * the source's current power, as one block with one noise draw; with an
     * injector attached, each tick's meter decision comes first and a
     * dropped tick records nothing. The caller guarantees that the source's
     * value has not changed since then, so it calls this before anything
     * the source reads changes. Every accessor below calls it first, the
     * simulator calls it when RunUntil returns, and the injector calls it
     * before any other operation.
     */
    void
    CatchUp()
    {
        if (on_clock_ && sim_->sample_ticks() != ticks_seen_) {
            RecordPendingTicks();
        }
    }

    /** Number of samples taken. */
    uint64_t
    sample_count()
    {
        CatchUp();
        return sample_count_;
    }

    /** Samples lost to injected meter failures (USB glitches etc.). The
     * running average simply spans fewer samples — as with the real
     * instrument, a dropped window biases nothing, it only thins the data. */
    uint64_t
    dropped_sample_count()
    {
        CatchUp();
        return dropped_sample_count_;
    }

    /**
     * Guards every sample with @p injector (nullptr detaches) and installs
     * CatchUp() as its sync hook. The monitor must be stopped. The injector
     * must outlive the monitor or be detached first: the destructor removes
     * the hook.
     */
    void SetFaultInjector(FaultInjector* injector);

    /** Average of all measured samples. */
    Milliwatts MeasuredAveragePower();

    /**
     * Average power over the samples taken since the previous drain, then
     * resets the window. Gives the controller a per-control-cycle power
     * measurement (for profile-drift detection) without disturbing the
     * cumulative statistics above. Falls back to the running average when
     * the window is empty (e.g. total meter dropout).
     */
    Milliwatts DrainWindowAveragePower();

    /** Samples currently accumulated in the drain window. */
    uint64_t
    window_sample_count()
    {
        CatchUp();
        return window_count_;
    }

    /** Measured energy: average power × observed duration. */
    Joules MeasuredEnergy();

    /** Wall time spanned by the measurement (start → last sample). */
    SimTime ObservedDuration();

    /** Clears statistics (does not stop sampling). */
    void Reset();

  private:
    /** Noise draws taken from rng_ at a time; see NextNoise(). */
    static constexpr size_t kNoiseBatch = 64;

    /** Leaves the sample clock, recording nothing. */
    void Detach();

    /** CatchUp()'s work once a tick is pending: records the block. */
    void RecordPendingTicks();

    /**
     * The noise term of the next recorded block: rng_.Gaussian(0, σ), the
     * same values in the same order as one draw per block, but drawn
     * kNoiseBatch at a time, so the draws' log and sincos run as one burst
     * off the block's dependency chain. The first block fills the batch, so
     * a monitor that records nothing draws nothing.
     */
    double
    NextNoise()
    {
        if (noise_next_ == kNoiseBatch) {
            for (double& noise : noise_) {
                noise = rng_.Gaussian(0.0, config_.noise_rel_stddev);
            }
            noise_next_ = 0;
        }
        return noise_[noise_next_++];
    }

    Simulator* sim_;
    std::function<Milliwatts()> power_source_;
    Rng rng_;
    /** Drawn-ahead noise terms; noise_next_ indexes the next unused one. */
    std::array<double, kNoiseBatch> noise_{};
    size_t noise_next_ = kNoiseBatch;
    MonsoonConfig config_;
    /** Interval between samples. */
    SimTime period_;
    /** Sampling on the simulator's sample clock. */
    bool on_clock_ = false;
    /** Clock ticks already recorded, and the time of the next one. */
    uint64_t ticks_seen_ = 0;
    SimTime next_tick_;
    FaultInjector* injector_ = nullptr;
    /** Memoized injector lookup for the block's meter decisions. */
    FaultInjector::PathQuery fault_query_{kMonsoonFaultPath};
    SimTime start_time_;
    SimTime last_sample_time_;
    double power_sum_mw_ = 0.0;
    uint64_t sample_count_ = 0;
    double window_sum_mw_ = 0.0;
    uint64_t window_count_ = 0;
    uint64_t dropped_sample_count_ = 0;
};

}  // namespace aeo

#endif  // AEO_POWER_MONSOON_H_
