/**
 * @file
 * Linux's DVFS policy framework (§II-A), written once for every frequency
 * domain: separation of policy (governors selected by name through sysfs,
 * from a constant table per policy kind — exactly the interface the paper's
 * controller uses to take over frequency control) and mechanism (the
 * domain's level), the scaling limits and the kernel-owned thermal cap
 * under one clamp rule, and the sysfs files, named per directory from a
 * constant table.
 *
 * cpufreq (a CPU cluster), devfreq (the memory bus) and kgsl (the GPU) are
 * thin subclasses: each adds its typed table, its meter, and the codec
 * between a level and its sysfs value (kHz, MB/s, MHz).
 *
 * The policy is the only code that knows its directory's file names and
 * how a level is written: consumers open a file with Open() and format a
 * level with FormatLevel(), whatever the domain and the directory layout.
 */
#ifndef AEO_KERNEL_DVFS_POLICY_H_
#define AEO_KERNEL_DVFS_POLICY_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "kernel/sysfs.h"
#include "sim/simulator.h"
#include "soc/level_domain.h"

namespace aeo {

class DvfsPolicy;

/** Base class for the governors of any DVFS domain. */
class DvfsGovernor {
  public:
    virtual ~DvfsGovernor() = default;

    /** Governor name as it appears in the governor sysfs file. */
    virtual std::string name() const = 0;

    /** Called when the governor takes control of the policy. */
    virtual void Start() = 0;

    /**
     * Called when the governor is replaced, and from the policy's base
     * destructor — where the subclass is already gone, so Stop() must not
     * reach a policy's level↔value hooks.
     */
    virtual void Stop() = 0;

    /**
     * Handles a write to the userspace target file (scaling_setspeed,
     * userspace/set_freq), which the policy has already resolved to the
     * closest level. Only the userspace governor accepts.
     *
     * @return true if the request was accepted.
     */
    virtual bool SetTargetLevel(int) { return false; }
};

/** One governor a policy kind offers: its sysfs name and its constructor,
 * which binds it to a policy of that kind. */
struct DvfsGovernorEntry {
    const char* name;
    std::unique_ptr<DvfsGovernor> (*make)(DvfsPolicy* policy);
};

/** True when @p governors are in strictly ascending name order, the order
 * the available-governors file lists them in. */
constexpr bool
SortedByName(std::span<const DvfsGovernorEntry> governors)
{
    for (size_t i = 1; i < governors.size(); ++i) {
        if (std::string_view(governors[i - 1].name) >=
            std::string_view(governors[i].name)) {
            return false;
        }
    }
    return true;
}

/**
 * The file names of one policy directory. A null name means the directory
 * has no such file.
 */
struct DvfsSysfsNames {
    const char* governor;
    const char* available_governors;
    const char* cur_freq;
    const char* available_frequencies;
    const char* min_freq;
    const char* max_freq;
    /** The userspace governor's target file. */
    const char* set_freq;
    /** True when set_freq reads "<unsupported>" unless the userspace
     * governor is active (cpufreq's scaling_setspeed). */
    bool set_freq_needs_userspace;
};

/** One frequency domain's policy. */
class DvfsPolicy {
  public:
    /** Stops the active governor. */
    virtual ~DvfsPolicy();

    DvfsPolicy(const DvfsPolicy&) = delete;
    DvfsPolicy& operator=(const DvfsPolicy&) = delete;

    /** Switches governors; returns false for a name the policy kind's
     * table does not hold. */
    bool SetGovernor(const std::string& name);

    /** Name of the active governor ("none" before the first SetGovernor). */
    std::string governor_name() const;

    /** Names of the policy kind's governors, space-separated (sysfs
     * format). */
    std::string AvailableGovernors() const;

    // --- Interface used by governors -------------------------------------

    /**
     * Requests a level, clamped into [min(min limit, ceiling), ceiling]
     * with ceiling = min(max limit, thermal cap): when the thermal cap sits
     * below the lower limit, the cap wins (as on hardware, where
     * msm_thermal writes policy->max underneath userspace).
     */
    void RequestLevel(int level);

    /** Current 0-based level. */
    int current_level() const { return domain_->level(); }

    /**
     * Registers a hook that brings the meters up to date (the device model
     * integrates lazily); governors invoke it before sampling.
     */
    void SetSyncHook(std::function<void()> hook) { sync_hook_ = std::move(hook); }

    /** Brings the meters up to date; no-op when no hook is registered. */
    void
    SyncMeters() const
    {
        if (sync_hook_) {
            sync_hook_();
        }
    }

    /** The simulation executive (for governor timers). */
    Simulator* sim() const { return sim_; }

    /** The policy's sysfs directory (e.g. ".../cpufreq/policy4"). */
    const std::string& sysfs_root() const { return sysfs_root_; }

    /**
     * Interns one of the directory's files, named by its entry in the name
     * table, e.g. Open(&DvfsSysfsNames::governor). Panics when the
     * directory has no such file.
     */
    SysfsHandle Open(const char* DvfsSysfsNames::*file) const;

    /** Number of levels of the managed domain. */
    int num_levels() const { return domain_->num_levels(); }

    /** Lower scaling limit (min_freq), as a level. */
    int min_level_limit() const { return min_level_limit_; }

    /** Upper scaling limit (max_freq), as a level. */
    int max_level_limit() const { return max_level_limit_; }

    /** Sets the scaling limits (inclusive level range). */
    void SetLevelLimits(int min_level, int max_level);

    /**
     * Thermal ceiling imposed by the msm_thermal driver, as a level. Unlike
     * the user limits it is owned by the kernel: userspace cannot raise it,
     * requests above it are clamped *silently* (the write still succeeds),
     * and max_freq reads report the effective — thermally capped — limit,
     * exactly how msm_thermal mutates policy->max on hardware.
     */
    void SetThermalCapLevel(int level);

    /** The binding upper limit: min(user limit, thermal cap). */
    int effective_max_level() const;

    // --- The domain's codec ----------------------------------------------

    /** The sysfs value of @p level (kHz, MB/s or MHz), before rounding. */
    virtual double ValueOfLevel(int level) const = 0;

    /** The level closest to the sysfs value @p value. */
    virtual int LevelOfValue(long long value) const = 0;

    /** @p level's sysfs value rounded to the nearest integer: the one write
     * codec, (long long)(value + 0.5) of kHz, MB/s or MHz. */
    long long RoundedValue(int level) const;

    /** RoundedValue(@p level) as the text its files read and accept. */
    std::string FormatLevel(int level) const;

  protected:
    /**
     * @param sim        Simulation executive; must outlive the policy.
     * @param domain     The managed domain; must outlive the policy.
     * @param sysfs      Virtual sysfs in which to expose the policy files.
     * @param sysfs_root Directory for the files, e.g.
     *                   "/sys/devices/system/cpu/cpu0/cpufreq".
     * @param names      The directory's file names.
     * @param governors  The policy kind's governor table, SortedByName().
     */
    DvfsPolicy(Simulator* sim, LevelDomain* domain, Sysfs* sysfs,
               std::string sysfs_root, const DvfsSysfsNames& names,
               std::span<const DvfsGovernorEntry> governors);

  private:
    void RegisterSysfsFiles();

    /** Parses a written value; false unless it is a positive integer. */
    static bool ParseValue(const std::string& text, long long* value);

    Simulator* sim_;
    LevelDomain* domain_;
    Sysfs* sysfs_;
    std::string sysfs_root_;
    /** The directory's constant name table. */
    const DvfsSysfsNames* names_;
    /** The policy kind's constant governor table. */
    std::span<const DvfsGovernorEntry> governors_;
    std::unique_ptr<DvfsGovernor> governor_;
    std::function<void()> sync_hook_;
    int min_level_limit_ = 0;
    int max_level_limit_ = 0;
    int thermal_cap_level_ = 0;
};

/**
 * The typed policy a governor binds to. Panics when a governor table holds
 * a governor of another kind of policy (a CPU governor on the bus).
 */
template <typename Policy>
Policy*
PolicyAs(DvfsPolicy* policy)
{
    Policy* typed = dynamic_cast<Policy*>(policy);
    AEO_ASSERT(typed != nullptr,
               "governor made on the wrong kind of policy ('%s')",
               policy->sysfs_root().c_str());
    return typed;
}

}  // namespace aeo

#endif  // AEO_KERNEL_DVFS_POLICY_H_
