/**
 * @file
 * Tests of the benchmark's own code: the order statistics every timing goes
 * through, the run-invariant oracle, and the traced-vs-untraced identity the
 * traced run relies on. Build and run with:
 *
 *   cmake --build .bench_build/perfbench --target perfbench_test
 *   .bench_build/perfbench/perfbench_test
 */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/scenarios.h"
#include "invariants.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Stats, PercentileMatchesInclusiveQuartiles)
{
    // statistics.quantiles([1, 2, 3, 4, 5], n=4, method="inclusive") and
    // numpy.percentile give 2, 3, 4.
    const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(Percentile(values, 25.0), 2.0);
    EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(Percentile(values, 75.0), 4.0);
    EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 5.0);
    // Interpolates between closest ranks: rank 0.9 · 3 = 2.7 in {10..40}.
    EXPECT_DOUBLE_EQ(Percentile({10.0, 20.0, 30.0, 40.0}, 90.0), 37.0);
}

aeo::RunResult
ValidRun()
{
    aeo::RunResult run;
    run.app_name = "Spotify";
    run.energy_j = 100.0;
    run.measured_energy_j = 100.01;
    run.duration_s = 100.0;
    run.avg_gips = 0.5;
    run.executed_gi = 50.0;
    run.cpu_residency = {0.25, 0.5, 0.25};
    run.bw_residency = {1.0};
    return run;
}

TEST(Invariants, AcceptsAValidRun)
{
    EXPECT_TRUE(CheckRunResult(ValidRun(), aeo::GetAppScenario("Spotify")).empty());
}

TEST(Invariants, RejectsResidencySummingToNinetyPercent)
{
    aeo::RunResult run = ValidRun();
    run.cpu_residency = {0.5, 0.4};
    const std::vector<std::string> problems =
        CheckRunResult(run, aeo::GetAppScenario("Spotify"));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("cpu residency"), std::string::npos);
}

TEST(Invariants, RejectsRunsWithoutWorkAndMissedBatchCaps)
{
    aeo::RunResult idle = ValidRun();
    idle.executed_gi = 0.0;
    EXPECT_FALSE(CheckRunResult(idle, aeo::GetAppScenario("Spotify")).empty());

    aeo::RunResult batch = ValidRun();
    batch.app_name = "VidCon";
    batch.app_finished = false;
    EXPECT_FALSE(CheckRunResult(batch, aeo::GetAppScenario("VidCon")).empty());
    batch.app_finished = true;
    EXPECT_TRUE(CheckRunResult(batch, aeo::GetAppScenario("VidCon")).empty());
}

TEST(Tracer, NestsSpansAndIgnoresNullTracer)
{
    Tracer tracer;
    {
        const ScopedSpan job(&tracer, "job", 3, kNoSpan);
        const ScopedSpan stage(&tracer, "stock_run", 3, job.id());
        EXPECT_NE(stage.id(), job.id());
    }
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].job, 3);
    EXPECT_GE(spans[0].end_s, spans[1].end_s);
    const ScopedSpan off(nullptr, "job", 0, kNoSpan);
    EXPECT_EQ(off.id(), kNoSpan);
}

/** Runs one untraced pass at @p untraced_workers and one traced pass at
 * @p traced_workers; both must produce the same simulated bytes. */
void
ExpectTracedEqualsUntraced(const std::string& name, int untraced_workers,
                           int traced_workers)
{
    aeo::SetLogLevel(aeo::LogLevel::kQuiet);
    std::unique_ptr<Workload> untraced =
        MakeWorkload(name, BenchConfig{2018, untraced_workers});
    std::unique_ptr<Workload> traced_run =
        MakeWorkload(name, BenchConfig{2018, traced_workers});
    ASSERT_NE(untraced, nullptr);
    Tracer tracer;
    untraced->SetUp(nullptr);
    traced_run->SetUp(&tracer);
    const PassOutput plain = untraced->RunPass(nullptr);
    const PassOutput traced = traced_run->RunPass(&tracer);
    EXPECT_TRUE(plain.problems.empty());
    EXPECT_FALSE(plain.fingerprint.empty());
    EXPECT_EQ(plain.fingerprint, traced.fingerprint);
    EXPECT_EQ(plain.attempted, traced.attempted);
    // Chaos verdicts are counted as violated, never as failed operations.
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_EQ(traced.failed, 0u);
    EXPECT_EQ(plain.violated, traced.violated);
    EXPECT_FALSE(tracer.Durations("job").empty());
}

TEST(Workloads, TracedNexus6PassEqualsUntraced)
{
    ExpectTracedEqualsUntraced("nexus6_eval", 2, 1);
}

TEST(Workloads, TracedChaosPassEqualsUntraced)
{
    ExpectTracedEqualsUntraced("chaos_campaigns", 2, 1);
}

TEST(Workloads, UnknownNameIsRejected)
{
    EXPECT_EQ(MakeWorkload("nexus6", BenchConfig{}), nullptr);
}

}  // namespace
}  // namespace perfbench
