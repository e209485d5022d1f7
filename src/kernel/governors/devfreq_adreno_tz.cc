#include "kernel/governors/devfreq_adreno_tz.h"

#include <memory>

#include "common/logging.h"

namespace aeo {

AdrenoTzGovernor::AdrenoTzGovernor(GpuFreqPolicy* policy)
    : policy_(policy), timer_(policy->sim(), [this] { Sample(); })
{
    AEO_ASSERT(policy_ != nullptr, "adreno-tz governor needs a policy");
}

void
AdrenoTzGovernor::Start()
{
    policy_->SyncMeters();
    last_busy_seconds_ = policy_->busy_meter()->busy_seconds();
    last_elapsed_ = policy_->busy_meter()->elapsed();
    timer_.Start(kSamplingPeriod);
}

void
AdrenoTzGovernor::Stop()
{
    timer_.Stop();
}

void
AdrenoTzGovernor::Sample()
{
    policy_->SyncMeters();
    const double busy_seconds = policy_->busy_meter()->busy_seconds();
    const SimTime elapsed = policy_->busy_meter()->elapsed();
    const double dt = (elapsed - last_elapsed_).seconds();
    const double busy = dt > 0.0 ? (busy_seconds - last_busy_seconds_) / dt : 0.0;
    last_busy_seconds_ = busy_seconds;
    last_elapsed_ = elapsed;

    const int level = policy_->current_level();
    if (busy > kUpThreshold) {
        policy_->RequestLevel(level + 1);
    } else if (busy < kDownThreshold) {
        policy_->RequestLevel(level - 1);
    }
}

std::unique_ptr<DvfsGovernor>
MakeAdrenoTzGovernor(DvfsPolicy* policy)
{
    return std::make_unique<AdrenoTzGovernor>(PolicyAs<GpuFreqPolicy>(policy));
}

}  // namespace aeo
