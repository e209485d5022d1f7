/**
 * @file
 * The level state every DVFS domain shares: a current 0-based level on a
 * discrete ladder, the transition count the overhead analysis reads
 * (§V-A1), the time spent at each level (the residency of Figures 1, 4
 * and 5), and the pre/post change listeners through which the device
 * re-integrates its state around every change.
 *
 * CpuCluster, MemoryBus and GpuDomain derive from it and add their typed
 * table; the kernel's DvfsPolicy drives the level through this class, so
 * there is one SetLevel for every domain.
 */
#ifndef AEO_SOC_LEVEL_DOMAIN_H_
#define AEO_SOC_LEVEL_DOMAIN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace aeo {

/** A frequency domain with levels [0, num_levels); it starts at level 0. */
class LevelDomain {
  public:
    /** @param num_levels Number of levels on the domain's ladder. */
    explicit LevelDomain(int num_levels)
        : residency_s_(static_cast<size_t>(num_levels))
    {
    }

    /** Number of levels. */
    int num_levels() const { return static_cast<int>(residency_s_.size()); }

    /** Highest level. */
    int max_level() const { return num_levels() - 1; }

    /** Current 0-based level. */
    int level() const { return level_; }

    /**
     * Switches to @p level. Counts a transition when the level actually
     * changes and notifies the change listeners (the device uses them to
     * re-integrate state).
     */
    void SetLevel(int level);

    /** Registers a callback invoked *before* any state change is applied. */
    void SetPreChangeListener(std::function<void()> listener);

    /** Registers a callback invoked *after* any state change is applied. */
    void SetPostChangeListener(std::function<void()> listener);

    /** Number of level transitions performed. */
    uint64_t transition_count() const { return transition_count_; }

    /** Charges @p seconds to the current level. The domain keeps no clock:
     * its owner charges each integration segment once. */
    void
    AddResidency(double seconds)
    {
        residency_s_[static_cast<size_t>(level_)] += seconds;
    }

    /**
     * Each level's share of the charged time, in level order: its sum over
     * the sum across the levels, all zero before any charge.
     */
    std::vector<double> ResidencyFractions() const;

  protected:
    /** Run around a subclass's own state change (e.g. hotplug), so its
     * listeners see it exactly like a level change. */
    void NotifyPreChange() const;
    void NotifyPostChange() const;

  private:
    int level_ = 0;
    uint64_t transition_count_ = 0;
    /** Seconds charged to each level. */
    std::vector<double> residency_s_;
    std::function<void()> pre_change_;
    std::function<void()> post_change_;
};

}  // namespace aeo

#endif  // AEO_SOC_LEVEL_DOMAIN_H_
