/**
 * @file
 * The passive governors, written once for every DVFS policy (§II-A):
 * userspace takes no decisions of its own and lets a root process set the
 * level through the userspace target file (scaling_setspeed,
 * userspace/set_freq) — the hook through which the paper's controller
 * actuates; performance and powersave pin the upper and the lower scaling
 * limit.
 */
#ifndef AEO_KERNEL_GOVERNORS_PASSIVE_H_
#define AEO_KERNEL_GOVERNORS_PASSIVE_H_

#include <memory>

#include "kernel/dvfs_policy.h"

namespace aeo {

/** The passive governors, on a policy of any kind. */
std::unique_ptr<DvfsGovernor> MakeUserspaceGovernor(DvfsPolicy* policy);
std::unique_ptr<DvfsGovernor> MakePerformanceGovernor(DvfsPolicy* policy);
std::unique_ptr<DvfsGovernor> MakePowersaveGovernor(DvfsPolicy* policy);

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_PASSIVE_H_
