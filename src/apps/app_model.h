/**
 * @file
 * Phase-structured application workload models.
 *
 * The paper's six applications are closed-source Android apps; what the
 * controller observes is the load pattern they place on CPU and memory bus.
 * AppModel reproduces those patterns from three phase kinds:
 *
 *  - kTimed:  a fixed wall-time interval of (possibly rate-capped) demand —
 *             steady decode/streaming work;
 *  - kWork:   a fixed quantum of instructions executed as fast as the
 *             hardware allows — page loads, song-change bursts, transcoding
 *             chunks (the app "finishes" when the last work phase drains);
 *  - kFrame:  a deadline loop — per frame, a work quantum followed by idle
 *             slack until the period boundary; when the hardware is too slow
 *             the work spills into the slack and the CPU saturates. This is
 *             what makes games and video calls ramp the interactive governor
 *             and is the source of the speedup saturation the paper reports
 *             ("performance does not improve beyond frequency 5").
 *
 * Demand magnitudes carry per-instance jitter from a seeded RNG so runs are
 * realistic but reproducible.
 */
#ifndef AEO_APPS_APP_MODEL_H_
#define AEO_APPS_APP_MODEL_H_

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "sim/time.h"
#include "soc/execution_engine.h"

namespace aeo {

/** Phase pacing kind; see the file comment. */
enum class PhaseKind {
    kTimed,
    kWork,
    kFrame,
};

/** One phase of an application's execution. */
struct AppPhase {
    std::string name;
    PhaseKind kind = PhaseKind::kTimed;

    /** Demand while actively computing (kWork/kFrame treat it as a burst). */
    WorkloadDemand demand;

    /** Non-CPU component power while in this phase (decoder/radio/etc), mW. */
    double component_mw = 0.0;

    /**
     * GPU render work generated per giga-instruction of application
     * progress, in render-units (1 unit/s of demand loads a 1 MHz GPU
     * fully). 0 = the app does not exercise the GPU model.
     */
    double gpu_units_per_gi = 0.0;

    /** kTimed / kFrame: phase length in wall time. */
    SimTime duration;

    /** kWork: instructions to retire, in units of 1e9. */
    double work_gi = 0.0;

    /** kFrame: work quantum per frame, units of 1e9 instructions. */
    double frame_work_gi = 0.0;

    /** kFrame: frame period (e.g. 16.7 ms for 60 fps). */
    SimTime frame_period;

    /** kFrame: demand during the idle slack part of a frame. */
    WorkloadDemand slack_demand;
};

/** A complete workload description. */
struct AppSpec {
    std::string name;
    std::vector<AppPhase> phases;
    /** Repeat the phase list forever (paced apps); batch apps end instead. */
    bool loop = false;
    /** Relative log-normal jitter applied per phase/frame instance. */
    double jitter_rel = 0.0;
};

/** Runtime state machine walking an AppSpec. */
class AppModel {
  public:
    /**
     * @param spec The workload; copied in.
     * @param seed Seed for the jitter stream.
     */
    AppModel(AppSpec spec, uint64_t seed);

    /** Workload name. */
    const std::string& name() const { return spec_.name; }

    /** True once a non-looping spec has drained all phases. */
    bool Finished() const { return finished_; }

    /** The demand the device should apply right now. */
    const WorkloadDemand&
    CurrentDemand() const
    {
        static constexpr WorkloadDemand kIdle{1.0, 1.0, 0.0, 0.0};
        return finished_ ? kIdle : active_demand_;
    }

    /** Non-CPU component power right now, mW. */
    double
    CurrentComponentPower() const
    {
        return finished_ ? 0.0 : phase().component_mw;
    }

    /** GPU render-units generated per giga-instruction right now. */
    double
    CurrentGpuUnitsPerGi() const
    {
        return finished_ ? 0.0 : phase().gpu_units_per_gi;
    }

    /** Name of the current phase ("done" when finished). */
    std::string CurrentPhaseName() const;

    /**
     * Advances the model over a segment during which @p executed_gi
     * instructions retired in @p dt of wall time. Phase and frame
     * transitions happen here.
     */
    void Advance(SimTime dt, double executed_gi);

    /**
     * Time until the model's demand next changes, assuming the current
     * instruction rate @p gips holds. Returns nullopt when nothing will
     * change (finished, or an unbounded steady phase).
     */
    std::optional<SimTime> TimeToBoundary(double gips) const;

    /** Total instructions retired so far, units of 1e9. */
    double total_executed_gi() const { return total_executed_gi_; }

    /** Total wall time advanced. */
    SimTime total_elapsed() const { return total_elapsed_; }

  private:
    /** Sub-state within a kFrame phase. */
    enum class FrameState { kComputing, kSlack };

    const AppPhase&
    phase() const
    {
        AEO_ASSERT(!finished_, "no current phase after finishing");
        return spec_.phases[phase_index_];
    }

    void EnterPhase(size_t index);
    void NextPhase();
    void StartFrame();
    double JitterDraw();

    AppSpec spec_;
    Rng rng_;
    size_t phase_index_ = 0;
    bool finished_ = false;

    /** Wall time spent in the current phase. */
    SimTime phase_elapsed_;
    /** kWork: instructions retired in the current phase. */
    double phase_work_done_ = 0.0;
    /** Jitter multiplier for the current phase instance. */
    double phase_jitter_ = 1.0;

    // kFrame state.
    FrameState frame_state_ = FrameState::kComputing;
    double frame_work_remaining_ = 0.0;
    SimTime frame_slack_remaining_;

    /** Jittered demand for the active (sub-)phase. */
    WorkloadDemand active_demand_;

    double total_executed_gi_ = 0.0;
    SimTime total_elapsed_;
};

}  // namespace aeo

#endif  // AEO_APPS_APP_MODEL_H_
