#include "kernel/governors/cpufreq_ondemand.h"

#include "common/logging.h"

namespace aeo {

CpufreqOndemandGovernor::CpufreqOndemandGovernor(CpufreqPolicy* policy)
    : policy_(policy), timer_(policy->sim(), [this] { Sample(); })
{
    AEO_ASSERT(policy_ != nullptr, "ondemand governor needs a policy");
}

void
CpufreqOndemandGovernor::Start()
{
    window_.emplace(policy_->load_meter());
    timer_.Start(kSamplingPeriod);
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
    if (load >= kUpThreshold) {
        policy_->RequestLevel(policy_->max_level_limit());
        return;
    }
    // Scale down: find the lowest frequency that would keep the projected
    // load below (up_threshold - down_differential). busy GHz-equivalent is
    // load × f_cur; required f = busy / target_load.
    const double f_cur = policy_->table().FrequencyAt(policy_->current_level()).value();
    const double target_load = kUpThreshold - kDownDifferential;
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
