#include "core/experiment.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <variant>

#include "apps/app_registry.h"
#include "common/logging.h"
#include "platform/sim_platform.h"

namespace aeo {

namespace {

/** A distinct profile of the plan, and its samples once stage 1 ran. */
struct PlannedProfile {
    AppSpec app;
    ProfilerOptions options;
    std::vector<SystemConfig> grid;
    std::vector<ProfileSample> samples;
};

/** Marks a stage-1 cell that is a stock run, not a profile sample. */
constexpr size_t kStockRun = std::numeric_limits<size_t>::max();

/** One stage-1 device run: stock run @p owner, or sample @p sample
 * (config * runs + run) of profile @p owner. */
struct StageOneCell {
    SimTime window;
    size_t owner;
    size_t sample;
};

bool
SameStockRun(const ComparisonJob& a, const ComparisonJob& b)
{
    return a.app_name == b.app_name && a.options.run_load == b.options.run_load &&
           a.options.seed == b.options.seed &&
           a.options.baseline_cpu_governor == b.options.baseline_cpu_governor;
}

}  // namespace

ProfilerOptions
ProfilerOptionsFor(const std::string& app_name, const ExperimentOptions& options)
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
    return profiler_options;
}

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
    ProfilerOptions profiler_options = ProfilerOptionsFor(app_name, options);
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
    return std::move(
        RunComparisons({ComparisonJob{app_name, options}}, options.batch).front());
}

std::vector<ExperimentOutcome>
ExperimentHarness::RunComparisons(const std::vector<ComparisonJob>& jobs,
                                  const BatchOptions& batch) const
{
    // The distinct stock runs (each named by the first job that needs it)
    // and profiles, and the ones each job uses.
    std::vector<size_t> stocks;
    std::vector<PlannedProfile> profiles;
    std::vector<size_t> stock_of;
    std::vector<size_t> profile_of;
    std::vector<SimTime> run_window;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const ComparisonJob& job = jobs[j];
        run_window.push_back(GetAppScenario(job.app_name).run_duration);
        const auto stock =
            std::find_if(stocks.begin(), stocks.end(), [&](size_t other) {
                return SameStockRun(jobs[other], job);
            });
        stock_of.push_back(static_cast<size_t>(stock - stocks.begin()));
        if (stock == stocks.end()) {
            stocks.push_back(j);
        }
        ProfilerOptions options = ProfilerOptionsFor(job.app_name, job.options);
        AEO_ASSERT(options.runs >= 1, "need at least one run");
        const auto profile = std::find_if(
            profiles.begin(), profiles.end(), [&](const PlannedProfile& other) {
                return other.app.name == job.app_name && other.options == options;
            });
        profile_of.push_back(static_cast<size_t>(profile - profiles.begin()));
        if (profile == profiles.end()) {
            std::vector<SystemConfig> grid = OfflineProfiler::Grid(options);
            std::vector<ProfileSample> samples(grid.size() *
                                               static_cast<size_t>(options.runs));
            profiles.push_back(PlannedProfile{MakeAppSpecByName(job.app_name),
                                              std::move(options), std::move(grid),
                                              std::move(samples)});
        }
    }

    // Stage 1: every stock run and profile cell in one fan-out, longest
    // simulated window first so no long run starts last.
    std::vector<StageOneCell> cells;
    for (size_t i = 0; i < stocks.size(); ++i) {
        cells.push_back(StageOneCell{run_window[stocks[i]], i, kStockRun});
    }
    for (size_t i = 0; i < profiles.size(); ++i) {
        for (size_t sample = 0; sample < profiles[i].samples.size(); ++sample) {
            cells.push_back(
                StageOneCell{profiles[i].options.measure_duration, i, sample});
        }
    }
    std::stable_sort(cells.begin(), cells.end(),
                     [](const StageOneCell& a, const StageOneCell& b) {
                         return a.window > b.window;
                     });
    const BatchRunner runner(batch);
    const OfflineProfiler profiler(factory_);
    using StageOneResult = std::variant<RunResult, ProfileSample>;
    std::vector<StageOneResult> stage_one = runner.RunIndexed<StageOneResult>(
        cells.size(), [&](size_t i) -> StageOneResult {
            const StageOneCell& cell = cells[i];
            if (cell.sample == kStockRun) {
                const ComparisonJob& job = jobs[stocks[cell.owner]];
                return RunDefault(job.app_name, job.options.run_load,
                                  job.options.seed,
                                  job.options.baseline_cpu_governor);
            }
            const PlannedProfile& profile = profiles[cell.owner];
            const auto runs = static_cast<size_t>(profile.options.runs);
            return profiler.MeasureRun(profile.app, profile.grid[cell.sample / runs],
                                       profile.options,
                                       static_cast<int>(cell.sample % runs));
        });
    std::vector<RunResult> stock_runs(stocks.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].sample == kStockRun) {
            stock_runs[cells[i].owner] =
                std::get<RunResult>(std::move(stage_one[i]));
        } else {
            profiles[cells[i].owner].samples[cells[i].sample] =
                std::get<ProfileSample>(stage_one[i]);
        }
    }
    std::vector<ProfileTable> tables;
    tables.reserve(profiles.size());
    for (const PlannedProfile& profile : profiles) {
        tables.push_back(OfflineProfiler::Reduce(profile.app.name, profile.grid,
                                                 profile.samples, profile.options));
    }

    std::vector<ExperimentOutcome> outcomes;
    outcomes.reserve(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        const RunResult& default_run = stock_runs[stock_of[j]];
        AEO_ASSERT(default_run.avg_gips > 0.0, "default run produced no work");
        const ProfileTable& table = tables[profile_of[j]];
        const double epsilon = jobs[j].options.prune_epsilon;
        outcomes.push_back(ExperimentOutcome{
            default_run, RunResult{},
            epsilon > 0.0 ? table.PruneEpsilonDominated(epsilon) : table,
            table});
    }

    // Stage 2: the controller runs, longest first. Each targets its stock
    // run's performance with its own table, so it waits for stage 1.
    std::vector<size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&run_window](size_t a, size_t b) {
        return run_window[a] > run_window[b];
    });
    std::vector<RunResult> controller_runs =
        runner.RunIndexed<RunResult>(order.size(), [&](size_t i) {
            const ComparisonJob& job = jobs[order[i]];
            const ExperimentOutcome& outcome = outcomes[order[i]];
            return RunWithController(job.app_name, outcome.table,
                                     outcome.default_run.avg_gips, job.options,
                                     job.options.seed + 2000);
        });
    for (size_t i = 0; i < order.size(); ++i) {
        ExperimentOutcome& outcome = outcomes[order[i]];
        outcome.controller_run = std::move(controller_runs[i]);
        outcome.perf_delta_pct =
            outcome.controller_run.PerformanceDeltaPercent(outcome.default_run);
        outcome.energy_savings_pct =
            outcome.controller_run.EnergySavingsPercent(outcome.default_run);
    }
    return outcomes;
}

}  // namespace aeo
