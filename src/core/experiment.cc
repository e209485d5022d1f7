#include "core/experiment.h"

#include "apps/app_registry.h"
#include "common/logging.h"
#include "platform/sim_platform.h"

namespace aeo {

ExperimentHarness::ExperimentHarness(DeviceFactory factory)
    : factory_(std::move(factory))
{
    AEO_ASSERT(factory_ != nullptr, "harness needs a device factory");
}

void
ExperimentHarness::DriveRun(Device* device, const AppScenario& scenario) const
{
    if (scenario.batch) {
        device->RunUntilAppFinishes(scenario.run_duration);
    } else {
        device->RunFor(scenario.run_duration);
    }
}

RunResult
ExperimentHarness::RunDefault(const std::string& app_name, BackgroundKind load,
                              uint64_t seed,
                              const std::string& cpu_governor) const
{
    const AppScenario scenario = GetAppScenario(app_name);
    std::unique_ptr<Device> device = factory_(seed);
    device->SetBackground(MakeBackgroundEnv(load));
    device->UseDefaultGovernors();
    if (!cpu_governor.empty() && cpu_governor != "interactive") {
        // Alternative stock baseline (e.g. lulzactive): only the CPU
        // governors change; bus and GPU stay with their Android defaults.
        for (size_t i = 0; i < device->num_clusters(); ++i) {
            AEO_ASSERT(device->cpufreq(i).SetGovernor(cpu_governor),
                       "unknown baseline CPU governor '%s'", cpu_governor.c_str());
        }
    }
    device->LaunchApp(MakeAppSpecByName(app_name));
    DriveRun(device.get(), scenario);
    return device->CollectResult(cpu_governor.empty() ? "default"
                                                      : cpu_governor);
}

ProfileTable
ExperimentHarness::ProfileApp(const std::string& app_name,
                              const ExperimentOptions& options) const
{
    const AppScenario scenario = GetAppScenario(app_name);
    ProfilerOptions profiler_options;
    profiler_options.sparse = options.sparse_profiling;
    profiler_options.cpu_only = options.cpu_only;
    profiler_options.cpu_levels = scenario.profile_cpu_levels;
    profiler_options.runs = options.profile_runs;
    profiler_options.measure_duration = options.profile_duration > SimTime::Zero()
                                            ? options.profile_duration
                                            : scenario.profile_duration;
    profiler_options.load = options.profile_load;
    profiler_options.seed = options.seed + 1000;
    profiler_options.batch = options.batch;
    const OfflineProfiler profiler(factory_);
    ProfileTable table = profiler.Profile(MakeAppSpecByName(app_name), profiler_options);
    if (options.prune_epsilon > 0.0) {
        table = table.PruneEpsilonDominated(options.prune_epsilon);
    }
    return table;
}

RunResult
ExperimentHarness::RunWithController(const std::string& app_name,
                                     const ProfileTable& table, double target_gips,
                                     const ExperimentOptions& options,
                                     uint64_t seed) const
{
    const AppScenario scenario = GetAppScenario(app_name);
    std::unique_ptr<Device> device = factory_(seed);
    device->SetBackground(MakeBackgroundEnv(options.run_load));
    device->LaunchApp(MakeAppSpecByName(app_name));

    ControllerConfig config = options.controller;
    config.target_gips = target_gips;
    platform::SimPlatform platform(device.get());
    OnlineController controller(&platform, table, config);
    controller.Start();
    DriveRun(device.get(), scenario);
    controller.Stop();
    return device->CollectResult(options.cpu_only ? "controller-cpu-only"
                                                  : "controller");
}

ExperimentOutcome
ExperimentHarness::RunComparison(const std::string& app_name,
                                 const ExperimentOptions& options) const
{
    // (1) Default governors: establishes E_def and the performance target
    //     R_def (§III-A).
    RunResult default_run = RunDefault(app_name, options.run_load, options.seed,
                                       options.baseline_cpu_governor);
    AEO_ASSERT(default_run.avg_gips > 0.0, "default run produced no work");

    // (2) Offline profiling (always under the profiling load).
    ProfileTable table = ProfileApp(app_name, options);

    // (3) Controller run targeting the default performance.
    RunResult controller_run = RunWithController(
        app_name, table, default_run.avg_gips, options, options.seed + 2000);

    ExperimentOutcome outcome{std::move(default_run), std::move(controller_run),
                              std::move(table)};
    outcome.perf_delta_pct =
        outcome.controller_run.PerformanceDeltaPercent(outcome.default_run);
    outcome.energy_savings_pct =
        outcome.controller_run.EnergySavingsPercent(outcome.default_run);
    return outcome;
}

std::vector<ExperimentOutcome>
ExperimentHarness::RunComparisons(std::vector<ComparisonJob> jobs,
                                  const BatchOptions& batch) const
{
    // The comparison is the unit of parallelism; its inner profiling runs
    // serially so fan-outs never nest and @p batch is the whole thread budget.
    for (ComparisonJob& job : jobs) {
        job.options.batch.jobs = 1;
    }
    return BatchRunner(batch).RunIndexed<ExperimentOutcome>(
        jobs.size(), [this, &jobs](size_t i) {
            const ComparisonJob& job = jobs[i];
            return RunComparison(job.app_name, job.options);
        });
}

}  // namespace aeo
