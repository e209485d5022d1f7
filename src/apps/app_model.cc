#include "apps/app_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace aeo {

namespace {
/** Work-completion tolerance, in giga-instructions (~1 instruction). */
constexpr double kWorkEpsilon = 1e-9;
}  // namespace

AppModel::AppModel(AppSpec spec, uint64_t seed) : spec_(std::move(spec)), rng_(seed)
{
    AEO_ASSERT(!spec_.phases.empty(), "app '%s' has no phases", spec_.name.c_str());
    for (const AppPhase& p : spec_.phases) {
        switch (p.kind) {
          case PhaseKind::kTimed:
            AEO_ASSERT(p.duration > SimTime::Zero(), "timed phase '%s' needs a duration",
                       p.name.c_str());
            break;
          case PhaseKind::kWork:
            AEO_ASSERT(p.work_gi > 0.0, "work phase '%s' needs work", p.name.c_str());
            break;
          case PhaseKind::kFrame:
            AEO_ASSERT(p.duration > SimTime::Zero(), "frame phase '%s' needs a duration",
                       p.name.c_str());
            AEO_ASSERT(p.frame_work_gi > 0.0, "frame phase '%s' needs frame work",
                       p.name.c_str());
            AEO_ASSERT(p.frame_period > SimTime::Zero(),
                       "frame phase '%s' needs a period", p.name.c_str());
            break;
        }
    }
    EnterPhase(0);
}

double
AppModel::JitterDraw()
{
    if (spec_.jitter_rel <= 0.0) {
        return 1.0;
    }
    // Log-normal keeps multipliers positive with median 1.
    return std::exp(rng_.Gaussian(0.0, spec_.jitter_rel));
}

void
AppModel::EnterPhase(size_t index)
{
    phase_index_ = index;
    phase_elapsed_ = SimTime::Zero();
    phase_work_done_ = 0.0;
    phase_jitter_ = JitterDraw();

    const AppPhase& p = phase();
    active_demand_ = p.demand;
    if (p.kind == PhaseKind::kWork) {
        // Jitter scales the quantum; demand magnitude jitters for paced work.
        active_demand_.demand_gips = p.demand.demand_gips * phase_jitter_;
    } else if (p.kind == PhaseKind::kTimed) {
        active_demand_.demand_gips = p.demand.demand_gips * phase_jitter_;
    } else {
        StartFrame();
    }
}

void
AppModel::NextPhase()
{
    if (phase_index_ + 1 < spec_.phases.size()) {
        EnterPhase(phase_index_ + 1);
        return;
    }
    if (spec_.loop) {
        EnterPhase(0);
        return;
    }
    finished_ = true;
}

void
AppModel::StartFrame()
{
    const AppPhase& p = phase();
    frame_state_ = FrameState::kComputing;
    frame_work_remaining_ = p.frame_work_gi * JitterDraw();
    frame_slack_remaining_ = SimTime::Zero();
    active_demand_ = p.demand;
}

void
AppModel::Advance(SimTime dt, double executed_gi)
{
    AEO_ASSERT(dt >= SimTime::Zero(), "negative advance");
    AEO_ASSERT(executed_gi >= -kWorkEpsilon, "negative executed work");
    if (finished_) {
        return;
    }
    total_executed_gi_ += executed_gi;
    total_elapsed_ += dt;
    phase_elapsed_ += dt;

    const AppPhase& p = phase();
    switch (p.kind) {
      case PhaseKind::kTimed:
        if (phase_elapsed_ >= p.duration) {
            NextPhase();
        }
        break;

      case PhaseKind::kWork:
        phase_work_done_ += executed_gi;
        if (phase_work_done_ + kWorkEpsilon >= p.work_gi * phase_jitter_) {
            NextPhase();
        }
        break;

      case PhaseKind::kFrame:
        if (phase_elapsed_ >= p.duration) {
            NextPhase();
            break;
        }
        if (frame_state_ == FrameState::kComputing) {
            frame_work_remaining_ -= executed_gi;
            if (frame_work_remaining_ <= kWorkEpsilon) {
                // Frame compute finished: idle until the period boundary.
                // Overrunning frames (slow hardware) skip the slack —
                // the next frame starts immediately, as when a game drops
                // below its target frame rate.
                const double period_s = p.frame_period.seconds();
                const double into_period =
                    NonNegativeFmod(phase_elapsed_.seconds(), period_s);
                const double slack_s = period_s - into_period;
                if (slack_s > 1e-6 && slack_s < period_s) {
                    frame_state_ = FrameState::kSlack;
                    frame_slack_remaining_ = SimTime::FromSecondsF(slack_s);
                    active_demand_ = p.slack_demand;
                } else {
                    StartFrame();
                }
            }
        } else {
            frame_slack_remaining_ -= dt;
            if (frame_slack_remaining_ <= SimTime::Zero()) {
                StartFrame();
            }
        }
        break;
    }
}

std::string
AppModel::CurrentPhaseName() const
{
    if (finished_) {
        return "done";
    }
    return phase().name;
}

std::optional<SimTime>
AppModel::TimeToBoundary(double gips) const
{
    if (finished_) {
        return std::nullopt;
    }
    const AppPhase& p = phase();
    const auto time_left = [&]() { return p.duration - phase_elapsed_; };

    switch (p.kind) {
      case PhaseKind::kTimed:
        return time_left();

      case PhaseKind::kWork: {
        if (gips <= 0.0) {
            return std::nullopt;
        }
        const double remaining = p.work_gi * phase_jitter_ - phase_work_done_;
        return SimTime::FromSecondsF(remaining / gips);
      }

      case PhaseKind::kFrame: {
        SimTime sub;
        if (frame_state_ == FrameState::kComputing) {
            if (gips <= 0.0) {
                return time_left();
            }
            sub = SimTime::FromSecondsF(frame_work_remaining_ / gips);
        } else {
            sub = frame_slack_remaining_;
        }
        return std::min(sub, time_left());
      }
    }
    AEO_PANIC("unreachable phase kind");
}

}  // namespace aeo
