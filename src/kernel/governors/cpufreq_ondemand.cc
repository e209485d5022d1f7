#include "kernel/governors/cpufreq_ondemand.h"

#include "common/logging.h"

namespace aeo {

CpufreqOndemandGovernor::CpufreqOndemandGovernor(CpufreqPolicy* policy,
                                                 OndemandParams params)
    : policy_(policy),
      params_(params),
      timer_(policy->sim(), [this] { Sample(); })
{
    AEO_ASSERT(policy_ != nullptr, "ondemand governor needs a policy");
    AEO_ASSERT(params_.up_threshold > 0.0 && params_.up_threshold <= 1.0,
               "up_threshold %f out of (0, 1]", params_.up_threshold);
}

void
CpufreqOndemandGovernor::Start()
{
    window_.emplace(policy_->load_meter());
    timer_.Start(params_.sampling_period);
}

void
CpufreqOndemandGovernor::Stop()
{
    timer_.Stop();
    window_.reset();
}

void
CpufreqOndemandGovernor::Sample()
{
    policy_->SyncMeters();
    const double load = window_->SampleCoreLoad();
    if (load >= params_.up_threshold) {
        policy_->RequestLevel(policy_->max_level_limit());
        return;
    }
    // Scale down: find the lowest frequency that would keep the projected
    // load below (up_threshold - down_differential). busy GHz-equivalent is
    // load × f_cur; required f = busy / target_load.
    const double f_cur = policy_->table().FrequencyAt(policy_->current_level()).value();
    const double target_load = params_.up_threshold - params_.down_differential;
    AEO_ASSERT(target_load > 0.0, "down differential leaves no target load");
    const double f_needed = f_cur * load / target_load;
    policy_->RequestFrequencyAtOrAbove(Gigahertz(f_needed));
}

std::unique_ptr<DvfsGovernor>
MakeCpufreqOndemandGovernor(DvfsPolicy* policy)
{
    return std::make_unique<CpufreqOndemandGovernor>(
        PolicyAs<CpufreqPolicy>(policy));
}

}  // namespace aeo
