#include "kernel/cpufreq.h"

#include <utility>

#include "common/logging.h"
#include "kernel/governors/cpufreq_interactive.h"
#include "kernel/governors/cpufreq_lulzactive.h"
#include "kernel/governors/cpufreq_ondemand.h"
#include "kernel/governors/passive.h"

namespace aeo {

namespace {

/** The scaling_* files of a cpufreq directory. */
constexpr DvfsSysfsNames kCpufreqNames = {
    .governor = "scaling_governor",
    .available_governors = "scaling_available_governors",
    .cur_freq = "scaling_cur_freq",
    .available_frequencies = "scaling_available_frequencies",
    .min_freq = "scaling_min_freq",
    .max_freq = "scaling_max_freq",
    .set_freq = "scaling_setspeed",
    .set_freq_needs_userspace = true,
};

/** The stock cpufreq governors. */
constexpr DvfsGovernorEntry kCpufreqGovernors[] = {
    {"interactive", MakeCpufreqInteractiveGovernor},
    {"lulzactive", MakeCpufreqLulzactiveGovernor},
    {"ondemand", MakeCpufreqOndemandGovernor},
    {"performance", MakePerformanceGovernor},
    {"powersave", MakePowersaveGovernor},
    {"userspace", MakeUserspaceGovernor},
};
static_assert(SortedByName(kCpufreqGovernors));

}  // namespace

CpufreqPolicy::CpufreqPolicy(Simulator* sim, CpuCluster* cluster,
                             const CpuLoadMeter* load_meter, Sysfs* sysfs,
                             std::string sysfs_root)
    : DvfsPolicy(sim, cluster, sysfs, std::move(sysfs_root), kCpufreqNames,
                 kCpufreqGovernors),
      cluster_(cluster),
      load_meter_(load_meter)
{
    AEO_ASSERT(load_meter_ != nullptr, "cpufreq policy wired with null load meter");
}

void
CpufreqPolicy::RequestFrequencyAtOrAbove(Gigahertz freq)
{
    RequestLevel(table().LevelAtOrAbove(freq));
}

double
CpufreqPolicy::ValueOfLevel(int level) const
{
    return table().FrequencyAt(level).kilohertz();
}

int
CpufreqPolicy::LevelOfValue(long long khz) const
{
    return table().ClosestLevel(Gigahertz(static_cast<double>(khz) / 1e6));
}

}  // namespace aeo
