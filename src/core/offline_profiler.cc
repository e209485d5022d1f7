#include "core/offline_profiler.h"

#include <algorithm>

#include "common/logging.h"
#include "soc/nexus6.h"

namespace aeo {

namespace {

/** Averages @p runs consecutive samples starting at @p first, accumulating
 * in run order (the serial summation order). */
ProfileMeasurement
ReduceRuns(const SystemConfig& config, const ProfileSample* first, int runs)
{
    double gips_sum = 0.0;
    double power_sum = 0.0;
    for (int run = 0; run < runs; ++run) {
        gips_sum += first[run].gips;
        power_sum += first[run].power_mw.value();
    }
    ProfileMeasurement measurement;
    measurement.config = config;
    measurement.gips = gips_sum / runs;
    measurement.power_mw = Milliwatts(power_sum / runs);
    return measurement;
}

}  // namespace

DeviceFactory
MakeDefaultDeviceFactory()
{
    return [](uint64_t seed) {
        DeviceConfig config;
        config.seed = seed;
        return std::make_unique<Device>(config);
    };
}

OfflineProfiler::OfflineProfiler(DeviceFactory factory) : factory_(std::move(factory))
{
    AEO_ASSERT(factory_ != nullptr, "profiler needs a device factory");
}

ProfileSample
OfflineProfiler::MeasureRun(const AppSpec& app, const SystemConfig& config,
                            const ProfilerOptions& options, int run) const
{
    uint64_t seed =
        options.seed + 7919ULL * static_cast<uint64_t>(run) +
        131071ULL * static_cast<uint64_t>(config.cpu_level * 512 +
                                          (config.gpu_level + 1) * 64 +
                                          config.bw_level + 1);
    if (config.controls_little()) {
        // Extra key axes fold in only on big.LITTLE grids, leaving every
        // historical homogeneous seed untouched.
        seed += 524287ULL * static_cast<uint64_t>(config.little_level * 8 +
                                                  config.placement + 2);
    }
    std::unique_ptr<Device> device = factory_(seed);
    device->SetBackground(MakeBackgroundEnv(options.load));
    device->PinConfig(config);
    device->LaunchApp(app);
    device->RunFor(options.measure_duration);
    const RunResult result = device->CollectResult("profiling");
    return ProfileSample{result.avg_gips, result.measured_avg_power_mw};
}

ProfileMeasurement
OfflineProfiler::MeasureConfig(const AppSpec& app, const SystemConfig& config,
                               const ProfilerOptions& options) const
{
    AEO_ASSERT(options.runs >= 1, "need at least one run");
    std::vector<ProfileSample> samples;
    samples.reserve(static_cast<size_t>(options.runs));
    for (int run = 0; run < options.runs; ++run) {
        samples.push_back(MeasureRun(app, config, options, run));
    }
    return ReduceRuns(config, samples.data(), options.runs);
}

std::vector<SystemConfig>
OfflineProfiler::Grid(const ProfilerOptions& options)
{
    if (!options.configs.empty()) {
        // Explicit (big.LITTLE) grid: measure exactly what the caller
        // enumerated, in the caller's order.
        return options.configs;
    }
    // CPU levels to measure: the caller's exact pruned list (§V-A), or —
    // when none is given — the paper's "each alternate CPU frequency" over
    // the full range in sparse mode.
    std::vector<int> cpu_grid = options.cpu_levels;
    if (cpu_grid.empty()) {
        const int step = options.sparse ? 2 : 1;
        for (int level = 0; level < kNexus6CpuLevels; level += step) {
            cpu_grid.push_back(level);
        }
    }
    std::sort(cpu_grid.begin(), cpu_grid.end());

    std::vector<SystemConfig> grid;
    if (options.cpu_only) {
        grid.reserve(cpu_grid.size());
        for (const int cpu : cpu_grid) {
            grid.push_back(SystemConfig{cpu, kBwDefaultGovernor});
        }
        return grid;
    }
    const int bw_max = kNexus6BwLevels - 1;
    std::vector<int> bw_grid;
    if (options.sparse) {
        bw_grid = {0, bw_max};
    } else {
        for (int bw = 0; bw <= bw_max; ++bw) {
            bw_grid.push_back(bw);
        }
    }
    std::vector<int> gpu_grid = options.gpu_levels;
    if (gpu_grid.empty()) {
        gpu_grid.push_back(kGpuDefaultGovernor);
    }
    grid.reserve(cpu_grid.size() * bw_grid.size() * gpu_grid.size());
    for (const int cpu : cpu_grid) {
        for (const int bw : bw_grid) {
            for (const int gpu : gpu_grid) {
                grid.push_back(SystemConfig{cpu, bw, gpu});
            }
        }
    }
    return grid;
}

ProfileTable
OfflineProfiler::Reduce(const std::string& app_name,
                        const std::vector<SystemConfig>& grid,
                        const std::vector<ProfileSample>& samples,
                        const ProfilerOptions& options)
{
    const auto runs = static_cast<size_t>(options.runs);
    AEO_ASSERT(samples.size() == grid.size() * runs,
               "%zu samples for %zu configurations x %zu runs", samples.size(),
               grid.size(), runs);
    std::vector<ProfileMeasurement> measurements;
    measurements.reserve(grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        measurements.push_back(
            ReduceRuns(grid[i], &samples[i * runs], options.runs));
    }
    ProfileTable table = ProfileTable::FromMeasurements(app_name, measurements);
    if (options.configs.empty() && !options.cpu_only && options.sparse) {
        table = table.InterpolateBandwidths(MakeNexus6BandwidthTable());
    }
    return table;
}

ProfileTable
OfflineProfiler::Profile(const AppSpec& app, const ProfilerOptions& options) const
{
    AEO_ASSERT(options.runs >= 1, "need at least one run");
    // Fan the (configuration, run) grid across the batch layer — every run
    // is one job on its own seeded device, indexed as i = config * runs +
    // run — then reduce each configuration's runs in index order, so the
    // table is bit-identical to a serial profile at any worker count.
    const std::vector<SystemConfig> grid = Grid(options);
    const auto runs = static_cast<size_t>(options.runs);
    const std::vector<ProfileSample> samples =
        BatchRunner(options.batch)
            .RunIndexed<ProfileSample>(grid.size() * runs, [&](size_t i) {
                return MeasureRun(app, grid[i / runs], options,
                                  static_cast<int>(i % runs));
            });
    return Reduce(app.name, grid, samples, options);
}

}  // namespace aeo
