#include "kernel/input_boost.h"

#include "common/logging.h"

namespace aeo {

InputBoost::InputBoost(Simulator* sim, CpufreqPolicy* policy, Gigahertz boost_freq)
    : sim_(sim), policy_(policy), boost_freq_(boost_freq)
{
    AEO_ASSERT(sim_ != nullptr && policy_ != nullptr, "input boost wired with nulls");
}

void
InputBoost::OnTouch()
{
    ++touch_count_;
    boost_until_ = sim_->Now() + kDuration;
    if (!boosted_) {
        boosted_ = true;
        saved_min_level_ = policy_->min_level_limit();
        const int boost_level =
            policy_->table().LevelAtOrAbove(boost_freq_);
        if (boost_level > saved_min_level_) {
            policy_->SetLevelLimits(boost_level, policy_->max_level_limit());
        }
        sim_->ScheduleAfter(kDuration, [this] { Expire(); });
    }
}

void
InputBoost::Expire()
{
    if (!boosted_) {
        return;
    }
    if (sim_->Now() < boost_until_) {
        // A later touch extended the window; re-arm for the remainder.
        sim_->ScheduleAt(boost_until_, [this] { Expire(); });
        return;
    }
    boosted_ = false;
    policy_->SetLevelLimits(saved_min_level_, policy_->max_level_limit());
}

}  // namespace aeo
