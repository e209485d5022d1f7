/**
 * @file
 * Canonical sysfs mount points. Path literals are confined to src/kernel
 * and src/platform by lint (sysfs-literal, cluster-literal); every other
 * layer refers to these intern-once definitions.
 *
 * Single-cluster builds use the legacy per-cpu root (cpu0/cpufreq), the
 * node layout of the paper's Nexus 6 kernel. Multi-cluster SoCs expose one
 * policy directory per frequency domain named after its first CPU
 * (.../cpufreq/policy0, .../cpufreq/policy4), as Linux does on big.LITTLE.
 */
#ifndef AEO_KERNEL_SYSFS_ROOTS_H_
#define AEO_KERNEL_SYSFS_ROOTS_H_

#include <string>

namespace aeo {

/** Legacy single-cluster cpufreq root (the Nexus 6 build). */
inline constexpr const char kCpufreqSysfsRoot[] =
    "/sys/devices/system/cpu/cpu0/cpufreq";

/** The cpubw devfreq device. */
inline constexpr const char kDevfreqSysfsRoot[] =
    "/sys/class/devfreq/qcom,cpubw";

/** The GPU devfreq device. */
inline constexpr const char kGpuSysfsRoot[] =
    "/sys/class/kgsl/kgsl-3d0/devfreq";

/** Per-domain cpufreq policy directory, e.g. first_cpu 4 → ".../policy4". */
inline std::string
CpufreqPolicyRoot(int first_cpu)
{
    return "/sys/devices/system/cpu/cpufreq/policy" + std::to_string(first_cpu);
}

/** The cpufreq directory of the domain starting at @p first_cpu on a SoC
 * with @p num_clusters domains: the legacy root on a single cluster, so node
 * paths (and fault rules keyed on them) keep their historical names. */
inline std::string
CpufreqRoot(int first_cpu, int num_clusters)
{
    return num_clusters == 1 ? std::string(kCpufreqSysfsRoot)
                             : CpufreqPolicyRoot(first_cpu);
}

}  // namespace aeo

#endif  // AEO_KERNEL_SYSFS_ROOTS_H_
