/**
 * @file
 * The batch layer's determinism contract: parallelism changes wall-clock
 * time and nothing else. RunIndexed returns results by index at any worker
 * count, an offline profile is bit-identical (down to the CSV text)
 * whether it runs serially or fanned out across workers, and the
 * experiment plan equals the §V procedure run step by step while
 * measuring each shared stock run and profile cell once.
 */
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app_registry.h"
#include "core/batch_runner.h"
#include "core/experiment.h"
#include "core/offline_profiler.h"

namespace aeo {
namespace {

TEST(BatchRunnerTest, ResolveJobsDefaultsToHardware)
{
    EXPECT_GE(ResolveJobs(BatchOptions{}), 1);
    EXPECT_EQ(ResolveJobs(BatchOptions{1}), 1);
    EXPECT_EQ(ResolveJobs(BatchOptions{6}), 6);
}

TEST(BatchRunnerTest, ReturnsResultsInSubmissionOrder)
{
    const BatchRunner runner(BatchOptions{4});
    const std::vector<int> results = runner.RunIndexed<int>(
        64, [](size_t i) { return 1000 + static_cast<int>(i); });
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(results[static_cast<size_t>(i)], 1000 + i);
    }
}

TEST(BatchRunnerTest, InlineAndParallelAgree)
{
    const auto job = [](size_t i) { return 1.0 / static_cast<double>(i + 1); };
    const std::vector<double> serial =
        BatchRunner(BatchOptions{1}).RunIndexed<double>(40, job);
    const std::vector<double> parallel =
        BatchRunner(BatchOptions{4}).RunIndexed<double>(40, job);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]);  // bitwise, not approximate
    }
}

TEST(BatchRunnerTest, TaskExceptionRethrownToCaller)
{
    const BatchRunner runner(BatchOptions{2});
    const auto job = [](size_t i) -> int {
        if (i == 1) {
            throw std::runtime_error("job died");
        }
        return static_cast<int>(i);
    };
    EXPECT_THROW(runner.RunIndexed<int>(3, job), std::runtime_error);
}

TEST(BatchRunnerTest, FirstExceptionStopsHandingOutIndices)
{
    // Job 0 throws at once and every other job takes 200 µs. Once the throw
    // is captured no worker may pull another index, so the exception
    // reaches the caller long before the 2000 jobs could all have run.
    std::atomic<int> invocations{0};
    const auto job = [&invocations](size_t i) -> int {
        invocations.fetch_add(1);
        if (i == 0) {
            throw std::runtime_error("job 0 died");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return static_cast<int>(i);
    };
    EXPECT_THROW(BatchRunner(BatchOptions{2}).RunIndexed<int>(2000, job),
                 std::runtime_error);
    EXPECT_LT(invocations.load(), 1000);
}

/** A profile grid big enough to keep several workers busy, small enough for
 * a ctest: 3 CPU levels × 13 dense bandwidths × 2 runs = 78 device runs. */
ProfilerOptions
GridOptions(int jobs)
{
    ProfilerOptions options;
    options.sparse = false;
    options.cpu_levels = {0, 8, 17};
    options.runs = 2;
    options.measure_duration = SimTime::FromSeconds(2);
    options.seed = 4242;
    options.batch.jobs = jobs;
    return options;
}

TEST(BatchDeterminismTest, ProfileBitIdenticalAcrossWorkerCounts)
{
    const OfflineProfiler profiler;
    const AppSpec app = MakeAppSpecByName("AngryBirds");
    const std::string serial = profiler.Profile(app, GridOptions(1)).ToCsv();

    const unsigned hw = std::thread::hardware_concurrency();
    const std::vector<int> counts = {4, hw > 0 ? static_cast<int>(hw) : 2};
    for (const int jobs : counts) {
        EXPECT_EQ(profiler.Profile(app, GridOptions(jobs)).ToCsv(), serial)
            << "profile at jobs=" << jobs << " diverged from serial";
    }
}

/** The §V procedure step by step, outside the plan: the reference every
 * plan outcome must equal. */
ExperimentOutcome
SerialProcedure(const ExperimentHarness& harness, const ComparisonJob& job)
{
    const ExperimentOptions& options = job.options;
    RunResult default_run = harness.RunDefault(job.app_name, options.run_load,
                                               options.seed,
                                               options.baseline_cpu_governor);
    ExperimentOptions unpruned = options;
    unpruned.prune_epsilon = 0.0;
    ProfileTable profile = harness.ProfileApp(job.app_name, unpruned);
    ProfileTable table = options.prune_epsilon > 0.0
                             ? profile.PruneEpsilonDominated(options.prune_epsilon)
                             : profile;
    RunResult controller_run = harness.RunWithController(
        job.app_name, table, default_run.avg_gips, options, options.seed + 2000);
    ExperimentOutcome outcome{std::move(default_run), std::move(controller_run),
                              std::move(table), std::move(profile)};
    outcome.perf_delta_pct =
        outcome.controller_run.PerformanceDeltaPercent(outcome.default_run);
    outcome.energy_savings_pct =
        outcome.controller_run.EnergySavingsPercent(outcome.default_run);
    return outcome;
}

void
ExpectSameRun(const RunResult& actual, const RunResult& expected)
{
    EXPECT_EQ(actual.app_name, expected.app_name);
    EXPECT_EQ(actual.load_name, expected.load_name);
    EXPECT_EQ(actual.policy_name, expected.policy_name);
    EXPECT_EQ(actual.energy_j, expected.energy_j);
    EXPECT_EQ(actual.measured_energy_j, expected.measured_energy_j);
    EXPECT_EQ(actual.avg_power_mw.value(), expected.avg_power_mw.value());
    EXPECT_EQ(actual.measured_avg_power_mw.value(),
              expected.measured_avg_power_mw.value());
    EXPECT_EQ(actual.duration_s, expected.duration_s);
    EXPECT_EQ(actual.avg_gips, expected.avg_gips);
    EXPECT_EQ(actual.executed_gi, expected.executed_gi);
    EXPECT_EQ(actual.app_finished, expected.app_finished);
    EXPECT_EQ(actual.cpu_residency, expected.cpu_residency);
    EXPECT_EQ(actual.bw_residency, expected.bw_residency);
    EXPECT_EQ(actual.gpu_residency, expected.gpu_residency);
    EXPECT_EQ(actual.little_residency, expected.little_residency);
    EXPECT_EQ(actual.cpu_transitions, expected.cpu_transitions);
    EXPECT_EQ(actual.bw_transitions, expected.bw_transitions);
    EXPECT_EQ(actual.little_transitions, expected.little_transitions);
    EXPECT_EQ(actual.loadavg, expected.loadavg);
}

/** Short profiles with two runs, so each configuration reduces two cells. */
ExperimentOptions
SweepOptions()
{
    ExperimentOptions options;
    options.profile_runs = 2;
    options.profile_duration = SimTime::FromSeconds(5);
    options.seed = 99;
    return options;
}

/** Table IV's three run loads for @p app: one profile, three stock runs. */
std::vector<ComparisonJob>
LoadSweep(const std::string& app)
{
    std::vector<ComparisonJob> jobs;
    for (const BackgroundKind load : {BackgroundKind::kBaseline,
                                      BackgroundKind::kNoLoad,
                                      BackgroundKind::kHeavy}) {
        ExperimentOptions options = SweepOptions();
        options.run_load = load;
        jobs.push_back(ComparisonJob{app, options});
    }
    return jobs;
}

/** Table V's pair for @p app: CPU-only, then coordinated; one stock run. */
std::vector<ComparisonJob>
CpuOnlyPair(const std::string& app)
{
    ExperimentOptions cpu_only = SweepOptions();
    cpu_only.cpu_only = true;
    return {ComparisonJob{app, cpu_only}, ComparisonJob{app, SweepOptions()}};
}

TEST(BatchDeterminismTest, RunComparisonsMatchesSerialComparisons)
{
    const ExperimentHarness harness;
    std::vector<ComparisonJob> jobs;
    for (const std::string app : {"AngryBirds", "Spotify"}) {
        for (std::vector<ComparisonJob> part : {LoadSweep(app), CpuOnlyPair(app)}) {
            jobs.insert(jobs.end(), part.begin(), part.end());
        }
    }
    jobs.push_back(jobs[1]);

    std::vector<ExperimentOutcome> expected;
    for (const ComparisonJob& job : jobs) {
        expected.push_back(SerialProcedure(harness, job));
    }
    for (const int workers : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message() << "workers=" << workers);
        const std::vector<ExperimentOutcome> plan =
            harness.RunComparisons(jobs, BatchOptions{workers});
        ASSERT_EQ(plan.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << "job " << i << " " << jobs[i].app_name);
            ExpectSameRun(plan[i].default_run, expected[i].default_run);
            ExpectSameRun(plan[i].controller_run, expected[i].controller_run);
            EXPECT_EQ(plan[i].table.ToCsv(), expected[i].table.ToCsv());
            EXPECT_EQ(plan[i].unpruned_table.ToCsv(),
                      expected[i].unpruned_table.ToCsv());
            EXPECT_EQ(plan[i].perf_delta_pct, expected[i].perf_delta_pct);
            EXPECT_EQ(plan[i].energy_savings_pct, expected[i].energy_savings_pct);
        }
    }
}

/** Device builds per seed, from every thread of a sweep. */
class BuildCounter {
  public:
    DeviceFactory
    Factory()
    {
        return [this](uint64_t seed) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                ++builds_[seed];
            }
            return inner_(seed);
        };
    }

    /** Builds of @p seed. */
    int
    Builds(uint64_t seed) const
    {
        const auto it = builds_.find(seed);
        return it == builds_.end() ? 0 : it->second;
    }

    /** Builds of seeds other than @p skip, which must each be built once;
     * returns how many there were. */
    size_t
    SeedsBuiltOnceExcept(const std::set<uint64_t>& skip) const
    {
        size_t seeds = 0;
        for (const auto& [seed, builds] : builds_) {
            if (skip.count(seed) == 0) {
                EXPECT_EQ(builds, 1) << "seed " << seed;
                ++seeds;
            }
        }
        return seeds;
    }

  private:
    const DeviceFactory inner_ = MakeDefaultDeviceFactory();
    std::mutex mutex_;
    std::map<uint64_t, int> builds_;
};

/** Profile cells (configurations x runs) of @p job. */
size_t
ProfileCells(const ComparisonJob& job)
{
    const ProfilerOptions options = ProfilerOptionsFor(job.app_name, job.options);
    return OfflineProfiler::Grid(options).size() * static_cast<size_t>(options.runs);
}

TEST(BatchDeterminismTest, LoadSweepMeasuresItsSharedProfileOnce)
{
    // The three loads share one profile: each of its cells is one device
    // build, where three comparisons run one by one build three.
    BuildCounter counter;
    const ExperimentHarness harness(counter.Factory());
    const std::vector<ComparisonJob> jobs = LoadSweep("AngryBirds");
    harness.RunComparisons(jobs, BatchOptions{4});

    const uint64_t seed = jobs[0].options.seed;
    EXPECT_EQ(counter.Builds(seed), 3);         // one stock run per load
    EXPECT_EQ(counter.Builds(seed + 2000), 3);  // one controller run per job
    EXPECT_EQ(counter.SeedsBuiltOnceExcept({seed, seed + 2000}),
              ProfileCells(jobs[0]));
}

TEST(BatchDeterminismTest, CpuOnlyPairMeasuresItsSharedStockRunOnce)
{
    BuildCounter counter;
    const ExperimentHarness harness(counter.Factory());
    const std::vector<ComparisonJob> jobs = CpuOnlyPair("Spotify");
    harness.RunComparisons(jobs, BatchOptions{4});

    const uint64_t seed = jobs[0].options.seed;
    EXPECT_EQ(counter.Builds(seed), 1);
    EXPECT_EQ(counter.Builds(seed + 2000), 2);
    EXPECT_EQ(counter.SeedsBuiltOnceExcept({seed, seed + 2000}),
              ProfileCells(jobs[0]) + ProfileCells(jobs[1]));
}

TEST(BatchDeterminismTest, SerialSweepRunsEveryDeviceOnTheCallingThread)
{
    std::mutex mutex;
    std::set<std::thread::id> threads;
    const DeviceFactory inner = MakeDefaultDeviceFactory();
    ExperimentHarness harness([&](uint64_t seed) {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            threads.insert(std::this_thread::get_id());
        }
        return inner(seed);
    });
    ExperimentOptions options;
    options.profile_runs = 1;
    options.profile_duration = SimTime::FromSeconds(2);
    options.seed = 99;
    // A profiling fan-out of its own must not escape the sweep's budget.
    options.batch.jobs = 4;

    std::vector<ComparisonJob> jobs;
    jobs.push_back(ComparisonJob{"AngryBirds", options});
    jobs.push_back(ComparisonJob{"Spotify", options});
    harness.RunComparisons(jobs, BatchOptions{1});

    EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

}  // namespace
}  // namespace aeo
