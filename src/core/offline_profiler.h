/**
 * @file
 * Stage 1 of the solution: offline profiling (§III-A).
 *
 * The profiler pins each candidate system configuration through the
 * userspace governors, runs the application under a chosen background load,
 * measures speedup and Monsoon power (averaged over three runs, like the
 * paper) and assembles the profile table. In the sparse mode it measures
 * every other admitted CPU level at only the lowest and highest memory
 * bandwidths (≤ 9×2 = 18 configurations on the Nexus 6) and linearly
 * interpolates the remaining bandwidth columns.
 */
#ifndef AEO_CORE_OFFLINE_PROFILER_H_
#define AEO_CORE_OFFLINE_PROFILER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_model.h"
#include "apps/background_load.h"
#include "core/batch_runner.h"
#include "core/profile_table.h"
#include "device/device.h"

namespace aeo {

/** Builds a fresh device for one measurement run. */
using DeviceFactory = std::function<std::unique_ptr<Device>(uint64_t seed)>;

/** The default factory: a stock Nexus 6. */
DeviceFactory MakeDefaultDeviceFactory();

/** Profiling options. */
struct ProfilerOptions {
    /** Sparse grid (extreme bandwidths + interpolation; and, when no
     * explicit level list is given, every other CPU level). */
    bool sparse = true;
    /** Build a CPU-only table (bandwidth left to cpubw_hwmon; §V-D). */
    bool cpu_only = false;
    /**
     * Exact 0-based CPU levels to measure — the paper's per-application
     * pruned lists (§V-A), which are already "alternate" selections (e.g.
     * Spotify profiles exactly levels 1, 3, 5). Empty = every other level
     * of the full range in sparse mode, all 18 otherwise.
     */
    std::vector<int> cpu_levels;
    /**
     * GPU levels to include (§VII extension). Empty = leave the GPU to its
     * default governor (the paper's configuration).
     */
    std::vector<int> gpu_levels;
    /**
     * Explicit measurement grid. Non-empty overrides every grid knob above
     * and disables bandwidth interpolation — the big.LITTLE path, where the
     * caller enumerates the (big, little, bw, placement) cross-product with
     * EnumerateHetConfigs() and hands it straight to the profiler.
     */
    std::vector<SystemConfig> configs;
    /** Runs averaged per configuration (the paper uses 3). */
    int runs = 3;
    /** Measurement window per run. */
    SimTime measure_duration = SimTime::FromSeconds(20);
    /** Background load during profiling (the paper profiles under BL). */
    BackgroundKind load = BackgroundKind::kBaseline;
    /** Seed for the profiling runs. */
    uint64_t seed = 1000;
    /**
     * Parallel fan-out of the (configuration, run) grid. Every run builds
     * its own seeded Device, so the measurements are independent; results
     * are reduced in submission order, making the table bit-identical to a
     * serial profile at any worker count. jobs = 1 forces the historical
     * serial path.
     */
    BatchOptions batch;

    /** Equal options profile an app to the same table. batch takes part
     * although it changes only the wall clock; the experiment plan leaves
     * it at its default when it compares profiles. */
    bool operator==(const ProfilerOptions&) const = default;
};

/** One measurement run's averages: the unit a profile grid fans out. */
struct ProfileSample {
    double gips = 0.0;
    Milliwatts power_mw;
};

/**
 * The offline profiling stage. Profile() is Grid(), one MeasureRun() per
 * (configuration, run) cell, then Reduce(); the experiment plan
 * (ExperimentHarness::RunComparisons) calls the three parts itself so it
 * can fan many profiles' cells out at once.
 */
class OfflineProfiler {
  public:
    explicit OfflineProfiler(DeviceFactory factory = MakeDefaultDeviceFactory());

    /** Profiles @p app and returns its table. */
    ProfileTable Profile(const AppSpec& app, const ProfilerOptions& options) const;

    /** The configurations Profile() measures, in measurement order. */
    static std::vector<SystemConfig> Grid(const ProfilerOptions& options);

    /**
     * Run @p run of @p config on a fresh device seeded only from
     * (options.seed, config, run), so the sample is the same on any thread
     * and in any order.
     */
    ProfileSample MeasureRun(const AppSpec& app, const SystemConfig& config,
                             const ProfilerOptions& options, int run) const;

    /**
     * Builds the table from @p samples, options.runs per configuration of
     * @p grid, laid out as i = config * runs + run. Each configuration's
     * runs are averaged in run order, the serial summation order, so the
     * table is the same however the samples were produced.
     */
    static ProfileTable Reduce(const std::string& app_name,
                               const std::vector<SystemConfig>& grid,
                               const std::vector<ProfileSample>& samples,
                               const ProfilerOptions& options);

    /**
     * Measures one pinned configuration (averaged over options.runs).
     * @p config may carry kBwDefaultGovernor for CPU-only profiling.
     */
    ProfileMeasurement MeasureConfig(const AppSpec& app, const SystemConfig& config,
                                     const ProfilerOptions& options) const;

  private:
    DeviceFactory factory_;
};

}  // namespace aeo

#endif  // AEO_CORE_OFFLINE_PROFILER_H_
