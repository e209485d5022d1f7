#include "core/offline_profiler.h"

#include <algorithm>

#include "common/logging.h"
#include "soc/nexus6.h"

namespace aeo {

namespace {

/** One measurement run's averages (the unit of batch parallelism). */
struct RunSample {
    double gips = 0.0;
    Milliwatts power_mw;
};

/**
 * One pinned run on a fresh device. Self-contained: the device is built
 * from a seed derived only from (options.seed, config, run), so the sample
 * is identical whether the run executes serially or on a batch worker.
 */
RunSample
MeasureOneRun(const DeviceFactory& factory, const AppSpec& app,
              const SystemConfig& config, const ProfilerOptions& options, int run)
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
    std::unique_ptr<Device> device = factory(seed);
    device->SetBackground(MakeBackgroundEnv(options.load));
    device->PinConfig(config);
    device->LaunchApp(app);
    device->RunFor(options.measure_duration);
    const RunResult result = device->CollectResult("profiling");
    return RunSample{result.avg_gips, result.measured_avg_power_mw};
}

/** Reduces @p runs consecutive samples starting at @p first into one
 * measurement, accumulating in run order (the serial summation order). */
ProfileMeasurement
ReduceRuns(const SystemConfig& config, const RunSample* first, int runs)
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

ProfileMeasurement
OfflineProfiler::MeasureConfig(const AppSpec& app, const SystemConfig& config,
                               const ProfilerOptions& options) const
{
    AEO_ASSERT(options.runs >= 1, "need at least one run");
    std::vector<RunSample> samples;
    samples.reserve(static_cast<size_t>(options.runs));
    for (int run = 0; run < options.runs; ++run) {
        samples.push_back(MeasureOneRun(factory_, app, config, options, run));
    }
    return ReduceRuns(config, samples.data(), options.runs);
}

ProfileTable
OfflineProfiler::Profile(const AppSpec& app, const ProfilerOptions& options) const
{
    AEO_ASSERT(options.runs >= 1, "need at least one run");

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

    // The measurement grid, in the same order the serial loops visited it.
    std::vector<SystemConfig> grid;
    if (!options.configs.empty()) {
        // Explicit (big.LITTLE) grid: measure exactly what the caller
        // enumerated, in the caller's order.
        grid = options.configs;
    } else if (options.cpu_only) {
        grid.reserve(cpu_grid.size());
        for (const int cpu : cpu_grid) {
            grid.push_back(SystemConfig{cpu, kBwDefaultGovernor});
        }
    } else {
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
    }

    // Fan the (configuration, run) grid across the batch layer — every run
    // is one job on its own seeded device, indexed as i = config * runs +
    // run — then reduce each configuration's runs in index order, so the
    // table is bit-identical to a serial profile at any worker count. The
    // indexed fan-out keeps the serial fraction flat: no per-job closures
    // or futures are materialized for the profiling grid.
    const auto runs = static_cast<size_t>(options.runs);
    const BatchRunner runner(options.batch);
    const std::vector<RunSample> samples = runner.RunIndexed<RunSample>(
        grid.size() * runs, [&](size_t i) {
            return MeasureOneRun(factory_, app, grid[i / runs], options,
                                 static_cast<int>(i % runs));
        });

    std::vector<ProfileMeasurement> measurements;
    measurements.reserve(grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        measurements.push_back(ReduceRuns(
            grid[i], &samples[i * static_cast<size_t>(options.runs)], options.runs));
    }

    ProfileTable table = ProfileTable::FromMeasurements(app.name, measurements);
    if (options.configs.empty() && !options.cpu_only && options.sparse) {
        table = table.InterpolateBandwidths(MakeNexus6BandwidthTable());
    }
    return table;
}

}  // namespace aeo
