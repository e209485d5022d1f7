#include "kernel/devfreq.h"

#include <utility>

#include "common/logging.h"
#include "kernel/governors/devfreq_adreno_tz.h"
#include "kernel/governors/devfreq_cpubw_hwmon.h"
#include "kernel/governors/passive.h"

namespace aeo {

namespace {

/** The files of a devfreq device directory. */
constexpr DvfsSysfsNames kDevfreqNames = {
    .governor = "governor",
    .available_governors = "available_governors",
    .cur_freq = "cur_freq",
    .available_frequencies = "available_frequencies",
    .min_freq = "min_freq",
    .max_freq = "max_freq",
    .set_freq = "userspace/set_freq",
    .set_freq_needs_userspace = false,
};

/** kgsl's devfreq directory: the four files the GPU driver exposes. */
constexpr DvfsSysfsNames kKgslNames = {
    .governor = "governor",
    .available_governors = nullptr,
    .cur_freq = "cur_freq",
    .available_frequencies = "available_frequencies",
    .min_freq = nullptr,
    .max_freq = nullptr,
    .set_freq = "userspace/set_freq",
    .set_freq_needs_userspace = false,
};

/** The memory bus's stock devfreq governors. */
constexpr DvfsGovernorEntry kDevfreqGovernors[] = {
    {"cpubw_hwmon", MakeDevfreqCpubwHwmonGovernor},
    {"performance", MakePerformanceGovernor},
    {"powersave", MakePowersaveGovernor},
    {"userspace", MakeUserspaceGovernor},
};
static_assert(SortedByName(kDevfreqGovernors));

/** The GPU's stock kgsl governors. */
constexpr DvfsGovernorEntry kKgslGovernors[] = {
    {"msm-adreno-tz", MakeAdrenoTzGovernor},
    {"performance", MakePerformanceGovernor},
    {"userspace", MakeUserspaceGovernor},
};
static_assert(SortedByName(kKgslGovernors));

}  // namespace

DevfreqPolicy::DevfreqPolicy(Simulator* sim, MemoryBus* bus,
                             const BusTrafficMeter* traffic_meter, Sysfs* sysfs,
                             std::string sysfs_root)
    : DvfsPolicy(sim, bus, sysfs, std::move(sysfs_root), kDevfreqNames,
                 kDevfreqGovernors),
      bus_(bus),
      traffic_meter_(traffic_meter)
{
    AEO_ASSERT(traffic_meter_ != nullptr, "devfreq policy wired with null meter");
}

double
DevfreqPolicy::ValueOfLevel(int level) const
{
    return table().BandwidthAt(level).value();
}

int
DevfreqPolicy::LevelOfValue(long long mbps) const
{
    return table().ClosestLevel(MegabytesPerSecond(static_cast<double>(mbps)));
}

GpuFreqPolicy::GpuFreqPolicy(Simulator* sim, GpuDomain* gpu,
                             const GpuBusyMeter* meter, Sysfs* sysfs,
                             std::string sysfs_root)
    : DvfsPolicy(sim, gpu, sysfs, std::move(sysfs_root), kKgslNames,
                 kKgslGovernors),
      gpu_(gpu),
      meter_(meter)
{
    AEO_ASSERT(meter_ != nullptr, "gpufreq policy wired with null meter");
}

double
GpuFreqPolicy::ValueOfLevel(int level) const
{
    return gpu_->MhzAt(level);
}

int
GpuFreqPolicy::LevelOfValue(long long mhz) const
{
    return gpu_->ClosestLevel(static_cast<double>(mhz));
}

}  // namespace aeo
