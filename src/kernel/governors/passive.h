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

#include "kernel/dvfs_policy.h"

namespace aeo {

/** Factories for registration with any policy. */
DvfsGovernorFactory MakeUserspaceFactory();
DvfsGovernorFactory MakePerformanceFactory();
DvfsGovernorFactory MakePowersaveFactory();

}  // namespace aeo

#endif  // AEO_KERNEL_GOVERNORS_PASSIVE_H_
