/**
 * @file
 * E1 — Figure 1: histogram of CPU frequencies chosen by the default
 * governor for the eBook reader with no user interaction (WiFi on, baseline
 * background). The paper's motivating observation: >10 % of time at the
 * highest frequency and ~15 % at frequency 10 even though nothing happens.
 */
#include <cstdio>

#include "bench_common.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "paper_data.h"
#include "stats/comparison.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    // Only --seed changes this bench, but a misspelt flag still stops it.
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E1 / Fig. 1",
                       "CPU frequency histogram: eBook reader, default governor");

    ExperimentHarness harness;
    const RunResult run =
        harness.RunDefault("eBook", BackgroundKind::kBaseline, args.SeedOr(42));

    std::printf("%s\n\n", run.Summary().c_str());
    std::printf("%s\n", bench::RenderResidency(run.cpu_residency,
                                               bench::CpuLevelLabels())
                            .c_str());

    const double level10_pct = run.cpu_residency[9] * 100.0;
    const double top_pct = run.cpu_residency[17] * 100.0;
    double elevated_pct = 0.0;
    for (int level = 9; level < 18; ++level) {
        elevated_pct += run.cpu_residency[static_cast<size_t>(level)] * 100.0;
    }

    ComparisonReport report("Fig. 1 headline facts");
    report.Add("residency at level 10", paper::kFig1Level10ResidencyPct,
               level10_pct, "%");
    report.Add("residency at level 18 (>)", paper::kFig1TopFreqResidencyPct,
               top_pct, "%");
    std::printf("%s\n", report.ToString().c_str());
    std::printf("Elevated (level >= 10) residency: %.1f%% — \"running at a\n"
                "higher-than-necessary clock frequency results in energy "
                "wastage\".\n",
                elevated_pct);
    return 0;
}
