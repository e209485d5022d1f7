#include "kernel/governors/cpufreq_lulzactive.h"

#include <algorithm>

#include "common/logging.h"

namespace aeo {

CpufreqLulzactiveGovernor::CpufreqLulzactiveGovernor(CpufreqPolicy* policy)
    : policy_(policy), timer_(policy->sim(), [this] { Sample(); })
{
    AEO_ASSERT(policy_ != nullptr, "lulzactive governor needs a policy");
}

void
CpufreqLulzactiveGovernor::Start()
{
    window_.emplace(policy_->load_meter());
    last_change_time_ = policy_->sim()->Now();
    timer_.Start(kTimerRate);
}

void
CpufreqLulzactiveGovernor::Stop()
{
    timer_.Stop();
    window_.reset();
}

void
CpufreqLulzactiveGovernor::Sample()
{
    const SimTime now = policy_->sim()->Now();
    policy_->SyncMeters();
    const double load = window_->SampleCoreLoad();
    const int cur_level = policy_->current_level();

    if (load >= kIncCpuLoad) {
        if (now - last_change_time_ < kUpSampleTime) {
            return;
        }
        const int target =
            std::min(cur_level + kPumpUpStep, policy_->max_level_limit());
        if (target > cur_level) {
            policy_->RequestLevel(target);
            last_change_time_ = now;
        }
    } else {
        if (now - last_change_time_ < kDownSampleTime) {
            return;
        }
        const int target =
            std::max(cur_level - kPumpDownStep, policy_->min_level_limit());
        if (target < cur_level) {
            policy_->RequestLevel(target);
            last_change_time_ = now;
        }
    }
}

std::unique_ptr<DvfsGovernor>
MakeCpufreqLulzactiveGovernor(DvfsPolicy* policy)
{
    return std::make_unique<CpufreqLulzactiveGovernor>(
        PolicyAs<CpufreqPolicy>(policy));
}

}  // namespace aeo
