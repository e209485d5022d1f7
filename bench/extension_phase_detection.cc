/**
 * @file
 * E15 — the §V-B open problem: "how do we define and identify application
 * phases?"
 *
 * The paper identifies multi-phase applications (MobileBench) as the class
 * its controller handles worst, and names phase identification from PMU
 * measurements as the missing prerequisite. This harness answers the
 * prerequisite with the controller's own measurement stream: it runs
 * MobileBench under the controller, feeds each cycle's measured GIPS to the
 * online PhaseDetector, and reports how cleanly the load/view phases
 * separate — and contrasts a single-phase app (MX Player) where no phase
 * structure should be detected.
 */
#include <cstdio>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "control/phase_detector.h"
#include "core/experiment.h"
#include "core/online_controller.h"
#include "platform/sim_platform.h"

namespace {

using namespace aeo;

struct Detection {
    size_t phases;
    uint64_t switches;
    uint64_t cycles;
    std::vector<PhaseInfo> info;
};

/** @p seed seeds the baseline and the profile; the controller's device
 * runs at @p seed + 2. */
Detection
DetectPhases(const std::string& app, uint64_t seed)
{
    const ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = 1;
    options.seed = seed;
    const RunResult baseline =
        harness.RunDefault(app, BackgroundKind::kBaseline, seed);
    const ProfileTable table = harness.ProfileApp(app, options);

    DeviceConfig config;
    config.seed = seed + 2;
    Device device(config);
    device.LaunchApp(MakeAppSpecByName(app));
    ControllerConfig controller_config;
    controller_config.target_gips = baseline.avg_gips;
    platform::SimPlatform plat(&device);
    OnlineController controller(&plat, table, controller_config);
    controller.Start();
    device.RunFor(SimTime::FromSeconds(60));
    controller.Stop();

    PhaseDetector detector;
    for (const ControlCycleRecord& record : controller.history()) {
        if (record.measured_gips > 0.0) {
            detector.Classify(record.measured_gips);
        }
    }
    return Detection{detector.phases().size(), detector.switch_count(),
                     detector.sample_count(), detector.phases()};
}

}  // namespace

int
main(int argc, char** argv)
{
    SetLogLevel(LogLevel::kWarn);
    // Only --seed changes this bench, but a misspelt flag still stops it.
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E15 / §V-B extension",
                       "Online phase detection from the controller's measurements");

    TextTable table({"application", "phases found", "centroids (GIPS)",
                     "switch rate"});
    for (const std::string& app : {std::string("MobileBench"), std::string("MXPlayer"),
                                   std::string("Spotify")}) {
        const Detection detection = DetectPhases(app, args.SeedOr(51));
        std::string centroids;
        for (const PhaseInfo& phase : detection.info) {
            if (phase.hits < 2) {
                continue;  // transient clusters
            }
            if (!centroids.empty()) {
                centroids += " / ";
            }
            centroids += StrFormat("%.2f(x%llu)", phase.centroid,
                                   static_cast<unsigned long long>(phase.hits));
        }
        table.AddRow({app, StrFormat("%zu", detection.phases), centroids,
                      StrFormat("%.2f/cycle",
                                static_cast<double>(detection.switches) /
                                    static_cast<double>(detection.cycles))});
        std::fflush(stdout);
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("MobileBench's load/view structure separates into distinct\n"
                "clusters from the controller's own per-cycle GIPS stream — the\n"
                "prerequisite the paper poses in SV-B — while steady apps\n"
                "collapse to one phase. Per-phase targets/tables (as in the\n"
                "paper's reference [23]) can hang off these stable phase ids.\n");
    return 0;
}
