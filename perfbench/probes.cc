#include "probes.h"

#include <algorithm>
#include <memory>

#include "apps/app_registry.h"
#include "core/energy_optimizer.h"
#include "core/offline_profiler.h"
#include "core/scenarios.h"
#include "power/monsoon.h"
#include "sim/simulator.h"
#include "trace.h"

namespace perfbench {

namespace {

/** Simulated length of each dispatch/sample probe repetition. */
constexpr int64_t kProbeSeconds = 20;

/** Keeps probe results observable so the timed work is never elided. */
volatile double g_sink = 0.0;

}  // namespace

std::vector<double>
ProbeDispatchNs(int reps)
{
    std::vector<double> samples;
    for (int rep = 0; rep < reps; ++rep) {
        aeo::Simulator sim;
        uint64_t fired = 0;
        sim.ScheduleEvery(aeo::SimTime::Micros(200), [&fired] { ++fired; });
        const double start = NowSeconds();
        sim.RunFor(aeo::SimTime::FromSeconds(kProbeSeconds));
        const double elapsed = NowSeconds() - start;
        samples.push_back(elapsed * 1e9 / static_cast<double>(std::max<uint64_t>(fired, 1)));
    }
    return samples;
}

std::vector<double>
ProbeSampleNs(int reps)
{
    std::vector<double> samples;
    for (int rep = 0; rep < reps; ++rep) {
        aeo::Simulator sim;
        aeo::MonsoonMonitor monitor(
            &sim, [] { return aeo::Milliwatts(1000.0); },
            static_cast<uint64_t>(rep) + 1);
        monitor.Start();
        const double start = NowSeconds();
        sim.RunFor(aeo::SimTime::FromSeconds(kProbeSeconds));
        const double elapsed = NowSeconds() - start;
        monitor.Stop();
        g_sink = g_sink + monitor.MeasuredAveragePower().value();
        samples.push_back(elapsed * 1e9 /
                          static_cast<double>(std::max<uint64_t>(monitor.sample_count(), 1)));
    }
    return samples;
}

MeterTimings
ProbeMeterCost(const aeo::DeviceConfig& base, const aeo::SystemConfig& config,
               const std::string& app, int reps)
{
    const aeo::AppScenario scenario = aeo::GetAppScenario(app);
    auto time_run = [&](double sample_hz) {
        aeo::DeviceConfig device_config = base;
        device_config.monsoon.sample_hz = sample_hz;
        aeo::Device device(device_config);
        device.SetBackground(aeo::MakeBackgroundEnv(aeo::BackgroundKind::kBaseline));
        if (config.controls_little()) {
            device.PinHetConfiguration(aeo::HetConfig{
                config.cpu_level, config.little_level, config.bw_level,
                static_cast<aeo::ThreadPlacement>(
                    config.placement == aeo::kPlacementDefault
                        ? aeo::kPlacementBigOnly
                        : config.placement)});
        } else {
            device.PinConfiguration(config.cpu_level, config.bw_level);
        }
        device.LaunchApp(aeo::MakeAppSpecByName(app));
        const double start = NowSeconds();
        device.RunFor(scenario.profile_duration);
        const double elapsed = NowSeconds() - start;
        g_sink = g_sink + device.CollectResult("probe").energy_j;
        return elapsed;
    };
    MeterTimings timings;
    for (int rep = 0; rep < reps; ++rep) {
        // Interleaved so drift in host speed hits both sides alike.
        timings.full_s.push_back(time_run(5000.0));
        timings.slow_s.push_back(time_run(1.0));
    }
    return timings;
}

std::vector<double>
ProbePinnedRunMs(const aeo::DeviceConfig& base,
                 const std::vector<std::pair<std::string, aeo::SystemConfig>>& sample)
{
    const aeo::OfflineProfiler profiler([base](uint64_t seed) {
        aeo::DeviceConfig config = base;
        config.seed = seed;
        return std::make_unique<aeo::Device>(config);
    });
    std::vector<double> samples;
    for (const auto& [app, config] : sample) {
        aeo::ProfilerOptions options;
        options.runs = 1;
        options.measure_duration = aeo::GetAppScenario(app).profile_duration;
        options.seed = base.seed;
        options.batch.jobs = 1;
        const double start = NowSeconds();
        const aeo::ProfileMeasurement measurement =
            profiler.MeasureConfig(aeo::MakeAppSpecByName(app), config, options);
        samples.push_back((NowSeconds() - start) * 1e3);
        g_sink = g_sink + measurement.gips;
    }
    return samples;
}

std::vector<double>
ProbeOptimizeUs(const aeo::ProfileTable& table, const std::vector<double>& speedups)
{
    std::vector<double> samples;
    if (speedups.empty()) {
        return samples;
    }
    const aeo::EnergyOptimizer optimizer(&table);
    // Enough replays per sample that one sample spans well over a timer tick.
    const size_t rounds = std::max<size_t>(1, 2000 / speedups.size());
    for (int batch = 0; batch < 5; ++batch) {
        double power = 0.0;
        const double start = NowSeconds();
        for (size_t round = 0; round < rounds; ++round) {
            for (const double speedup : speedups) {
                power += optimizer.Optimize(speedup, 2.0).expected_power_mw.value();
            }
        }
        const double elapsed = NowSeconds() - start;
        g_sink = g_sink + power;
        samples.push_back(elapsed * 1e6 /
                          static_cast<double>(rounds * speedups.size()));
    }
    return samples;
}

}  // namespace perfbench
