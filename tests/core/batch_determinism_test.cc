/**
 * @file
 * The batch layer's determinism contract: parallelism changes wall-clock
 * time and nothing else. RunIndexed returns results by index at any worker
 * count, and an offline profile is bit-identical (down to the CSV text)
 * whether it runs serially or fanned out across workers.
 */
#include <atomic>
#include <chrono>
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

TEST(BatchDeterminismTest, RunComparisonsMatchesSerialComparisons)
{
    ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = 1;
    options.profile_duration = SimTime::FromSeconds(5);
    options.seed = 99;

    std::vector<ComparisonJob> jobs;
    jobs.push_back(ComparisonJob{"AngryBirds", options});
    jobs.push_back(ComparisonJob{"Spotify", options});

    const std::vector<ExperimentOutcome> batched =
        harness.RunComparisons(jobs, BatchOptions{2});
    ASSERT_EQ(batched.size(), 2u);
    size_t i = 0;
    for (const ComparisonJob& job : jobs) {
        const ExperimentOutcome serial =
            harness.RunComparison(job.app_name, job.options);
        EXPECT_EQ(batched[i].perf_delta_pct, serial.perf_delta_pct);
        EXPECT_EQ(batched[i].energy_savings_pct, serial.energy_savings_pct);
        EXPECT_EQ(batched[i].table.ToCsv(), serial.table.ToCsv());
        ++i;
    }
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
