#include "kernel/governors/devfreq_cpubw_hwmon.h"

#include <algorithm>

#include "common/logging.h"

namespace aeo {

DevfreqCpubwHwmonGovernor::DevfreqCpubwHwmonGovernor(DevfreqPolicy* policy)
    : policy_(policy), timer_(policy->sim(), [this] { Sample(); })
{
    AEO_ASSERT(policy_ != nullptr, "cpubw_hwmon governor needs a policy");
}

void
DevfreqCpubwHwmonGovernor::Start()
{
    window_.emplace(policy_->traffic_meter(), policy_->sim()->Now());
    low_samples_ = 0;
    required_low_samples_ = kInitialDownCount;
    timer_.Start(kSamplingPeriod);
}

void
DevfreqCpubwHwmonGovernor::Stop()
{
    timer_.Stop();
    window_.reset();
}

void
DevfreqCpubwHwmonGovernor::Sample()
{
    policy_->SyncMeters();
    const double measured_mbps = window_->SampleMbps(policy_->sim()->Now());
    const BandwidthTable& table = policy_->table();
    const int cur_level = policy_->current_level();
    const double provisioned = table.BandwidthAt(cur_level).value();
    // Provision so that measured traffic is target_utilization of the bus.
    const double wanted_mbps = measured_mbps / kTargetUtilization;

    if (measured_mbps > kTargetUtilization * provisioned) {
        // Fast up: provision to the io_percent target immediately.
        const int target = table.LevelAtOrAbove(MegabytesPerSecond(wanted_mbps));
        if (target > cur_level) {
            policy_->RequestLevel(target);
            low_samples_ = 0;
            required_low_samples_ = kInitialDownCount;
            return;
        }
        low_samples_ = 0;
        return;
    }

    // Candidate for a down-step: would the next level down still satisfy
    // the io_percent target?
    if (cur_level > policy_->min_level_limit()) {
        const double lower = table.BandwidthAt(cur_level - 1).value();
        if (wanted_mbps <= lower) {
            ++low_samples_;
            if (low_samples_ >= required_low_samples_) {
                policy_->RequestLevel(cur_level - 1);
                low_samples_ = 0;
                // Exponential back-off: each further reduction needs twice
                // as much evidence.
                required_low_samples_ =
                    std::min(required_low_samples_ * 2, kMaxDownCount);
            }
            return;
        }
    }
    low_samples_ = 0;
}

std::unique_ptr<DvfsGovernor>
MakeDevfreqCpubwHwmonGovernor(DvfsPolicy* policy)
{
    return std::make_unique<DevfreqCpubwHwmonGovernor>(
        PolicyAs<DevfreqPolicy>(policy));
}

}  // namespace aeo
