/**
 * @file
 * The mpdecision hotplug policy.
 *
 * Qualcomm's userspace daemon onlines/offlines cores based on load. The
 * paper *disables* it during experiments because hotplugging "can lead to
 * inaccurate measurements" (§IV-A) — offlined cores change both the power
 * baseline and the capacity mid-measurement. It is implemented here so the
 * repository can demonstrate exactly that distortion
 * (bench/ablation_mpdecision) and so device studies can opt back in.
 */
#ifndef AEO_KERNEL_MPDECISION_H_
#define AEO_KERNEL_MPDECISION_H_

#include <optional>
#include <vector>

#include "kernel/meters.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"
#include "soc/cpu_cluster.h"

namespace aeo {

/** Load-threshold CPU hotplug, one core per decision. */
class Mpdecision {
  public:
    /** Load sampling period. */
    static constexpr SimTime kSamplingPeriod = SimTime::Millis(100);
    /** Per-online-core busy fraction above which a core is onlined. */
    static constexpr double kOnlineThreshold = 0.80;
    /** Per-online-core busy fraction below which a core is offlined. */
    static constexpr double kOfflineThreshold = 0.30;
    /** Cores that always stay online. */
    static constexpr int kMinOnline = 1;
    static_assert(kMinOnline >= 1, "at least one core must stay online");
    static_assert(kOfflineThreshold < kOnlineThreshold, "thresholds out of order");

    /**
     * @param sim        Simulation executive; must outlive this.
     * @param cluster    The managed cluster; must outlive this.
     * @param load_meter Busy-time accounting to sample.
     */
    Mpdecision(Simulator* sim, CpuCluster* cluster, const CpuLoadMeter* load_meter);

    /**
     * Registers a further hotplug domain (big.LITTLE: one per cluster).
     * Each domain gets its own load window and independent decisions under
     * the shared thresholds, the way the userspace daemon treats each
     * policy. Must be called before Start().
     */
    void AddCluster(CpuCluster* cluster, const CpuLoadMeter* load_meter);

    /** Starts making hotplug decisions. */
    void Start();

    /** Stops; online cores are restored to the full count (the paper's
     * experimental configuration). */
    void Stop();

    /** True while active. */
    bool running() const { return timer_.running(); }

    /** Number of hotplug transitions performed. */
    uint64_t transition_count() const { return transition_count_; }

    /** Registers a meter-sync hook (the device integrates lazily). */
    void SetSyncHook(std::function<void()> hook) { sync_hook_ = std::move(hook); }

  private:
    /** One independently hotplugged cluster. */
    struct Domain {
        CpuCluster* cluster = nullptr;
        const CpuLoadMeter* load_meter = nullptr;
        std::optional<CpuLoadWindow> window;
    };

    void Sample();
    void SampleDomain(Domain* domain);

    Simulator* sim_;
    PeriodicTask timer_;
    std::vector<Domain> domains_;
    std::function<void()> sync_hook_;
    uint64_t transition_count_ = 0;
};

}  // namespace aeo

#endif  // AEO_KERNEL_MPDECISION_H_
