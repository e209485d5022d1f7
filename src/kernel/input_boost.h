/**
 * @file
 * Touch-event frequency boost.
 *
 * Android kernels raise the CPU frequency floor when the screen is touched
 * so the first frames of an interaction are fast. The paper *disables* this
 * ("a kernel compilation feature which causes CPU frequency boost on a
 * screen touch event is also disabled to help record reliable power data",
 * §IV-A). Implemented so its distortion of power measurements can be
 * demonstrated, and disabled by default like the paper's build.
 */
#ifndef AEO_KERNEL_INPUT_BOOST_H_
#define AEO_KERNEL_INPUT_BOOST_H_

#include <cstdint>

#include "kernel/cpufreq.h"
#include "sim/simulator.h"

namespace aeo {

/** Raises the cpufreq minimum for a window after each touch event. */
class InputBoost {
  public:
    /** Frequency floor applied on a touch when the cpu_boost node names
     * none (Nexus 6 boosts to ~1.5 GHz). */
    static constexpr Gigahertz kDefaultBoostFreq{1.4976};
    /** How long the floor holds after the last touch. */
    static constexpr SimTime kDuration = SimTime::Millis(1500);
    static_assert(kDuration > SimTime::Zero(), "boost duration must be positive");

    /**
     * @param sim        Simulation executive; must outlive this.
     * @param policy     The boosted policy; must outlive this.
     * @param boost_freq Frequency floor applied on a touch.
     */
    InputBoost(Simulator* sim, CpufreqPolicy* policy,
               Gigahertz boost_freq = kDefaultBoostFreq);

    /** A touch arrived: apply (or extend) the boost floor. */
    void OnTouch();

    /** Number of touches processed. */
    uint64_t touch_count() const { return touch_count_; }

    /** True while the floor is raised. */
    bool boosted() const { return boosted_; }

  private:
    void Expire();

    Simulator* sim_;
    CpufreqPolicy* policy_;
    Gigahertz boost_freq_;
    int saved_min_level_ = 0;
    SimTime boost_until_;
    bool boosted_ = false;
    uint64_t touch_count_ = 0;
};

}  // namespace aeo

#endif  // AEO_KERNEL_INPUT_BOOST_H_
