#include "kernel/governors/cpufreq_lulzactive.h"

#include <algorithm>

#include "common/logging.h"

namespace aeo {

CpufreqLulzactiveGovernor::CpufreqLulzactiveGovernor(CpufreqPolicy* policy,
                                                     LulzactiveParams params)
    : policy_(policy),
      params_(params),
      timer_(policy->sim(), [this] { Sample(); })
{
    AEO_ASSERT(policy_ != nullptr, "lulzactive governor needs a policy");
    AEO_ASSERT(params_.inc_cpu_load > 0.0 && params_.inc_cpu_load <= 1.0,
               "inc_cpu_load %f out of (0, 1]", params_.inc_cpu_load);
    AEO_ASSERT(params_.pump_up_step >= 1 && params_.pump_down_step >= 1,
               "pump steps must be at least one level");
}

void
CpufreqLulzactiveGovernor::Start()
{
    window_.emplace(policy_->load_meter());
    last_change_time_ = policy_->sim()->Now();
    timer_.Start(params_.timer_rate);
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

    if (load >= params_.inc_cpu_load) {
        if (now - last_change_time_ < params_.up_sample_time) {
            return;
        }
        const int target =
            std::min(cur_level + params_.pump_up_step, policy_->max_level_limit());
        if (target > cur_level) {
            policy_->RequestLevel(target);
            last_change_time_ = now;
        }
    } else {
        if (now - last_change_time_ < params_.down_sample_time) {
            return;
        }
        const int target =
            std::max(cur_level - params_.pump_down_step, policy_->min_level_limit());
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
