#include "kernel/governors/cpufreq_interactive.h"

#include <algorithm>

#include "common/logging.h"

namespace aeo {

CpufreqInteractiveGovernor::CpufreqInteractiveGovernor(CpufreqPolicy* policy)
    : policy_(policy), timer_(policy->sim(), [this] { Sample(); })
{
    AEO_ASSERT(policy_ != nullptr, "interactive governor needs a policy");
}

void
CpufreqInteractiveGovernor::Start()
{
    window_.emplace(policy_->load_meter());
    last_raise_time_ = policy_->sim()->Now();
    hispeed_since_ = policy_->sim()->Now();
    at_or_above_hispeed_ = false;
    timer_.Start(kTimerRate);
}

void
CpufreqInteractiveGovernor::Stop()
{
    timer_.Stop();
    window_.reset();
}

void
CpufreqInteractiveGovernor::Sample()
{
    const SimTime now = policy_->sim()->Now();
    policy_->SyncMeters();
    const double load = window_->SampleCoreLoad();
    const FrequencyTable& table = policy_->table();
    const int cur_level = policy_->current_level();
    const double f_cur = table.FrequencyAt(cur_level).value();
    const int hispeed_level =
        std::min(table.LevelAtOrAbove(kHispeedFreq), policy_->max_level_limit());

    int target_level;
    if (load >= kGoHispeedLoad) {
        // Burst response: jump at least to hispeed.
        if (cur_level < hispeed_level) {
            target_level = hispeed_level;
        } else {
            // Already at/above hispeed; may climb further only after the
            // above-hispeed delay has elapsed.
            if (at_or_above_hispeed_ &&
                now - hispeed_since_ >= kAboveHispeedDelay) {
                const double f_needed = f_cur * load / kTargetLoad;
                target_level = std::max(
                    cur_level, table.LevelAtOrAbove(Gigahertz(f_needed)));
            } else {
                target_level = cur_level;
            }
        }
    } else {
        // Steer toward target_load.
        const double f_needed = f_cur * load / kTargetLoad;
        target_level = table.LevelAtOrAbove(Gigahertz(f_needed));
    }

    if (target_level > cur_level) {
        policy_->RequestLevel(target_level);
        last_raise_time_ = now;
    } else if (target_level < cur_level) {
        // Only drop after the floor has aged out.
        if (now - last_raise_time_ >= kMinSampleTime) {
            policy_->RequestLevel(target_level);
        }
    }

    const bool now_hispeed = policy_->current_level() >= hispeed_level;
    if (now_hispeed && !at_or_above_hispeed_) {
        hispeed_since_ = now;
    }
    at_or_above_hispeed_ = now_hispeed;
}

std::unique_ptr<DvfsGovernor>
MakeCpufreqInteractiveGovernor(DvfsPolicy* policy)
{
    return std::make_unique<CpufreqInteractiveGovernor>(
        PolicyAs<CpufreqPolicy>(policy));
}

}  // namespace aeo
