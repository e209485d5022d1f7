/**
 * @file
 * The complete simulated phone: SoC + power model + Monsoon monitor +
 * kernel subsystems (sysfs, cpufreq, devfreq, PMU, perf, loadavg) + the
 * foreground application and background load.
 *
 * The device is the *plant* of the paper's feedback loop (Fig. 2). It keeps
 * all activity rates piecewise-constant and integrates state exactly between
 * events:
 *
 *  - any frequency/bandwidth change first integrates the elapsed segment at
 *    the old rates, applies the change, then recomputes rates;
 *  - application phase boundaries are predicted from the current rates and
 *    scheduled as events, so integration segments never straddle a demand
 *    change;
 *  - governor timers and perf sampling are ordinary events on the same
 *    queue; the 5 kHz power monitor runs on the simulator's sample clock
 *    and catches up before any power input changes (DESIGN.md §14).
 *
 * A Device is built fresh per experiment run (cheap) so every run is
 * deterministic for a given seed.
 */
#ifndef AEO_DEVICE_DEVICE_H_
#define AEO_DEVICE_DEVICE_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_model.h"
#include "apps/background_load.h"
#include "device/run_result.h"
#include "fault/fault_injector.h"
#include "kernel/cpufreq.h"
#include "kernel/devfreq.h"
#include "kernel/input_boost.h"
#include "kernel/mpdecision.h"
#include "kernel/msm_thermal.h"
#include "kernel/loadavg.h"
#include "kernel/meters.h"
#include "kernel/perf_tool.h"
#include "kernel/pmu.h"
#include "kernel/sysfs.h"
#include "kernel/sysfs_roots.h"
#include "power/energy_meter.h"
#include "power/monsoon.h"
#include "power/power_model.h"
#include "sim/simulator.h"
#include "soc/cluster_topology.h"
#include "soc/cpu_cluster.h"
#include "soc/execution_engine.h"
#include "soc/gpu_domain.h"
#include "soc/memory_bus.h"
#include "soc/thermal_model.h"

namespace aeo {

/** Construction parameters for a Device. */
struct DeviceConfig {
    /** Master seed; all component streams fork from it. */
    uint64_t seed = 1;
    /** Execution-model constants. */
    ExecutionModelParams exec_params;
    /** Power-model constants (defaults to the calibrated Nexus 6 set). */
    PowerModelParams power_params = MakeNexus6PowerParams();
    /**
     * Cluster topology. Absent (the default) builds the historical
     * single-cluster Nexus 6 — bit-identical to builds predating the
     * topology parameter. Every cluster is a frequency domain with its own
     * cpufreq policy, load meter, residency and governors; a multi-cluster
     * topology also opens the thread-placement axis.
     */
    std::optional<ClusterTopology> topology;
    /** Power-monitor setup. */
    MonsoonConfig monsoon;
    /** perf sampler setup. */
    PerfToolConfig perf;
    /**
     * Fault-injection rules (see fault/fault_injector.h). When non-empty a
     * deterministic FaultInjector — seeded independently of the component
     * RNG streams, so fault-free runs are bit-identical with or without
     * this field — is attached to the sysfs tree, the perf tool and the
     * power monitor.
     */
    std::vector<FaultRule> fault_rules;
};

/** The simulated Nexus 6. */
class Device {
  public:
    /** Builds a Nexus 6 with all stock governors registered. */
    explicit Device(DeviceConfig config = {});

    ~Device();

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    // --- Workload setup ---------------------------------------------------

    /** Installs the foreground application (replaces any previous one). */
    void LaunchApp(const AppSpec& spec);

    /** Installs a background-load environment. */
    void SetBackground(const BackgroundEnv& env);

    // --- Governor setup ---------------------------------------------------

    /** Selects the Android defaults: interactive + cpubw_hwmon. */
    void UseDefaultGovernors();

    /** Selects userspace governors on every CPU cluster and the bus
     * (controller mode). */
    void UseUserspaceGovernors();

    /**
     * Enables the mpdecision hotplug daemon. The paper disables it (§IV-A:
     * hotplugging "can lead to inaccurate measurements"); it is off by
     * default and exists to demonstrate that distortion.
     */
    void EnableMpdecision();

    /**
     * Enables the touch-event frequency boost the paper compiles out
     * (§IV-A). Off by default.
     */
    void EnableInputBoost();

    /** Delivers a touch event (no-op unless input boost is enabled). */
    void NotifyTouch();

    /**
     * Enables the thermal subsystem: a lumped-RC package model heated by
     * dissipated power plus the msm_thermal driver that polls it and clamps
     * the CPU frequency table in stages. Off by default — without it the
     * device is thermally unconstrained and runs are bit-identical to
     * builds predating the subsystem. Typically paired with a non-zero
     * PowerModelParams::leak_temp_coeff_per_c so heat feeds back into
     * leakage (and thus into profile drift).
     */
    void EnableThermal(ThermalParams thermal_params = {},
                       MsmThermalParams msm_params = {});

    /**
     * Pins @p config through the sysfs files, as the offline profiler does
     * for each measurement run (§III-A). The GPU comes first: userspace at
     * its level when the config controls it, else msm-adreno-tz. A CPU-only
     * config (§V-D) leaves the bus to cpubw_hwmon and pins the primary
     * cluster under userspace; any other config is pinned as
     * PinHetConfiguration() pins it.
     */
    void PinConfig(const SystemConfig& config);

    /** Pins the primary cluster's and the bus's levels via the userspace
     * governors; leaves the GPU alone. */
    void PinConfiguration(int cpu_level, int bw_level);

    /**
     * Pins a heterogeneous configuration: every cluster's frequency level,
     * bandwidth level and thread placement, all via userspace governors;
     * leaves the GPU alone. On a homogeneous device little_level must be 0
     * and the placement kBigOnly (the legacy semantics).
     */
    void PinHetConfiguration(const HetConfig& config);

    /**
     * Confines the foreground's threads (sched_setaffinity in spirit).
     * Panics if the placement is not admissible on this topology.
     */
    void SetThreadPlacement(ThreadPlacement placement);

    /** Current foreground thread placement. */
    ThreadPlacement thread_placement() const { return placement_; }

    // --- Running ----------------------------------------------------------

    /** Runs for a fixed duration of simulated time. */
    void RunFor(SimTime duration);

    /**
     * Runs until the foreground app finishes (batch apps) or @p max_duration
     * elapses, whichever is first.
     */
    void RunUntilAppFinishes(SimTime max_duration);

    /** Collects the metrics accumulated since construction. */
    RunResult CollectResult(const std::string& policy_name) const;

    // --- Component access (controller, tests, benches) ---------------------

    Simulator& sim() { return sim_; }
    Sysfs& sysfs() { return sysfs_; }
    const ClusterTopology& topology() const { return topology_; }
    /** Number of CPU clusters (frequency domains). */
    size_t num_clusters() const { return clusters_.size(); }
    /** Cluster @p index's cpufreq policy (topology order; 0 = primary). */
    CpufreqPolicy& cpufreq(size_t index = 0) { return *clusters_.at(index).cpufreq; }
    /** The LITTLE (last) cluster's cpufreq policy; nullptr on homogeneous
     * devices. */
    CpufreqPolicy*
    little_cpufreq()
    {
        return clusters_.size() > 1 ? clusters_.back().cpufreq.get() : nullptr;
    }
    DevfreqPolicy& devfreq() { return *devfreq_; }
    GpuFreqPolicy& gpufreq() { return *gpufreq_; }
    GpuDomain& gpu() { return gpu_; }
    PerfTool& perf() { return *perf_; }
    const Pmu& pmu() const { return pmu_; }
    /** CPU cluster @p index (topology order; 0 = primary). */
    CpuCluster& cluster(size_t index = 0) { return clusters_.at(index).cluster; }
    MemoryBus& bus() { return bus_; }
    const EnergyMeter& energy_meter() const { return energy_meter_; }
    MonsoonMonitor& monitor() { return *monitor_; }
    AppModel* foreground() { return foreground_.get(); }
    const AppModel* foreground() const { return foreground_.get(); }
    double loadavg() const { return loadavg_.value(); }

    /** The fault injector, or nullptr when no fault rules were configured. */
    FaultInjector* fault_injector() { return fault_injector_.get(); }

    /** The thermal model, or nullptr unless EnableThermal was called. */
    const ThermalModel* thermal_model() const { return thermal_.get(); }

    /** The msm_thermal driver, or nullptr unless EnableThermal was called. */
    MsmThermal* msm_thermal() { return msm_thermal_.get(); }

    /** Free memory the current background environment leaves, MB — the
     * runtime load signature the §V-C extension keys on. */
    double free_memory_mb() const { return background_env_.free_memory_mb; }

    /** The background load's app model. */
    const AppModel& background() const { return *background_; }

    /** Current foreground instruction rate (for tests). */
    double foreground_gips() const { return current_->rates.fg_gips; }

    /** Current true device power (the monitor's source). */
    Milliwatts CurrentPower() const;

    /**
     * Sets the average power the online controller's own computation draws
     * (regulator + optimizer + actuation writes; §V-A1).
     */
    void SetControllerOverheadPower(double mw);

    /**
     * Flushes integration up to the current simulated time (call before
     * reading meters outside an event).
     */
    void Sync();

  private:
    /** One CPU frequency domain and everything the device keeps for it. */
    struct ClusterDomain {
        explicit ClusterDomain(const ClusterSpec& cluster_spec);

        const ClusterSpec* spec;
        CpuCluster cluster;
        CpuLoadMeter load_meter;
        std::unique_ptr<CpufreqPolicy> cpufreq;
    };

    /**
     * The complete input of RecomputeRates(). Keys compare byte for byte,
     * so two keys match only when every double is bit-identical.
     */
    struct SegmentKey {
        /** After the background's memory multiplier; IdleDemand() when
         * there is no app or it has finished. */
        WorkloadDemand foreground;
        WorkloadDemand background;
        double cpu_overhead = 0.0;
        /** 0 for an idle foreground, which skips the GPU co-bottleneck
         * exactly as having no app does. */
        double gpu_units_per_gi = 0.0;
        std::array<int, kMaxCpuClusters> cluster_level{};
        std::array<int, kMaxCpuClusters> online_cores{};
        /** -1 only in an entry never filled, so it matches no state. */
        int bw_level = -1;
        int gpu_level = 0;
        ThreadPlacement placement = ThreadPlacement::kBigOnly;
        /** Keeps the struct free of padding bytes; always 0. */
        int unused = 0;

        bool operator==(const SegmentKey& other) const;
    };

    /** What RecomputeRates() derives from a SegmentKey. */
    struct SegmentRates {
        double fg_gips = 0.0;
        double bg_gips = 0.0;
        double mem_gbps = 0.0;
        /** Busy cores summed over the clusters. */
        double busy_cores = 0.0;
        /** Each cluster's split of the rates, in topology order. */
        std::array<ClusterLoad, kMaxCpuClusters> clusters{};
        double gpu_busy = 0.0;
    };

    /** One operating state the plant has evaluated. */
    struct SegmentEntry {
        SegmentKey key;
        SegmentRates rates;
        /** Set once the power has been evaluated at this state, with the
         * app component and overhead power it was evaluated with. */
        bool has_power = false;
        Milliwatts power{0.0};
        double app_component_mw = 0.0;
        double overhead_mw = 0.0;
    };

    /** Entries in the segment memo; see RecomputeRates(). */
    static constexpr size_t kSegmentMemoEntries = 4;

    void IntegrateToNow();
    void RecomputeRates();
    /** RecomputeRates()'s memo miss: the execution model and the GPU
     * co-bottleneck at @p key, which is the device's current state. */
    SegmentRates ComputeRates(const SegmentKey& key) const;
    /** The memo entry whose key is @p key, or nullptr. */
    SegmentEntry* FindSegment(const SegmentKey& key);
    void RescheduleBoundary();
    void OnBoundary();
    void MaybeFinish();
    /**
     * The pinning every pin path shares: every cluster and the bus go to
     * userspace; the primary cluster (every cluster when @p config controls
     * a LITTLE level) and the bus are pinned; then, on a big.LITTLE config,
     * the placement is set.
     */
    void PinCpuAndBus(const SystemConfig& config);
    /** Foreground plus background component power, mW. */
    double AppComponentPower() const;
    /** CurrentPower()'s slow path: reuses the current entry's power when
     * its inputs still match, else evaluates it. Out of line, so the fast
     * path saves and restores only the registers it uses. */
    void RefreshPower() const;
    /** Gathers every rail's inputs and runs the power model. */
    Milliwatts EvaluatePower(double app_component_mw, double overhead_mw) const;

    DeviceConfig config_;
    ClusterTopology topology_;
    Simulator sim_;
    Sysfs sysfs_;

    /** One entry per topology cluster, in topology order, in storage
     * reserved once: each domain stays at a fixed address, because its
     * policy points into it. */
    std::vector<ClusterDomain> clusters_;
    MemoryBus bus_;
    GpuDomain gpu_;
    ExecutionEngine engine_;
    PowerModel power_model_;

    BusTrafficMeter traffic_meter_;
    GpuBusyMeter gpu_meter_;
    Pmu pmu_;
    LoadAvg loadavg_;

    std::unique_ptr<DevfreqPolicy> devfreq_;
    std::unique_ptr<GpuFreqPolicy> gpufreq_;
    std::unique_ptr<Mpdecision> mpdecision_;
    std::unique_ptr<InputBoost> input_boost_;
    std::unique_ptr<ThermalModel> thermal_;
    std::unique_ptr<MsmThermal> msm_thermal_;
    std::unique_ptr<PerfTool> perf_;
    /** Declared before the monitor, which unhooks itself from it on
     * destruction. */
    std::unique_ptr<FaultInjector> fault_injector_;
    std::unique_ptr<MonsoonMonitor> monitor_;

    std::unique_ptr<AppModel> foreground_;
    std::unique_ptr<AppModel> background_;
    BackgroundEnv background_env_;

    EnergyMeter energy_meter_;

    SimTime last_update_;
    ThreadPlacement placement_ = ThreadPlacement::kBigOnly;
    double controller_overhead_mw_ = 0.0;

    EventId boundary_event_ = kInvalidEventId;
    bool stop_when_app_finishes_ = false;
    bool monitor_started_ = false;
    bool in_integrate_ = false;

    /**
     * The segment memo. A pinned device alternates between a handful of
     * operating states, so RecomputeRates() looks its complete input up
     * here and reuses the stored rates instead of running the execution
     * model again; a miss overwrites the entries round-robin. Every stored
     * value came from the same pure functions on bit-identical inputs, so a
     * hit changes no result (DESIGN.md §14 "Segment memo").
     */
    std::array<SegmentEntry, kSegmentMemoEntries> segments_{};
    size_t next_victim_ = 0;
    /** The entry holding the current rates, and the one before it. */
    SegmentEntry* current_ = &segments_[0];
    SegmentEntry* previous_ = &segments_[0];
    /**
     * Whether current_->power is the power now. Cleared when the rates
     * change, when perf starts or stops (its overhead is a power input)
     * and when a segment's end moves a temperature the power follows or an
     * app's component power; RefreshPower() then reuses the entry's power
     * only if the power does not follow temperature and both powers still
     * match.
     */
    mutable bool power_valid_ = false;
    /** A thermal model is attached and the leakage coefficient is non-zero,
     * so temperature changes the power; set by EnableThermal(). */
    bool power_follows_temperature_ = false;
};

}  // namespace aeo

#endif  // AEO_DEVICE_DEVICE_H_
