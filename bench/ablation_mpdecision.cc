/**
 * @file
 * E14 — §IV-A methodology check: why the paper disables mpdecision (CPU
 * hotplug) and the touch-event frequency boost during measurements.
 *
 * Spotify is profiled at a fixed configuration with the modules off
 * (the paper's setup) and with each enabled; hotplug changes the power
 * baseline and the available capacity mid-measurement, and the touch boost
 * overrides the pinned frequency floor — both corrupt the (speedup, power)
 * rows the controller depends on.
 */
#include <cstdio>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "device/device.h"

namespace {

using namespace aeo;

struct Probe {
    double gips;
    Milliwatts power_mw;
    uint64_t hotplugs;
};

Probe
Measure(bool mpdecision, bool touch_boost, uint64_t seed)
{
    DeviceConfig config;
    config.seed = seed;
    Device device(config);
    device.PinConfiguration(2, 0);  // a Table-I style profiling point
    if (mpdecision) {
        device.EnableMpdecision();
    }
    if (touch_boost) {
        device.EnableInputBoost();
    }
    device.LaunchApp(MakeAppSpecByName("Spotify"));
    if (touch_boost) {
        // The user interacts with the screen roughly every 1.5 s.
        for (double t = 0.5; t < 30.0; t += 1.5) {
            device.sim().ScheduleAt(SimTime::FromSecondsF(t),
                                    [&device] { device.NotifyTouch(); });
        }
    }
    device.RunFor(SimTime::FromSeconds(30));
    const RunResult result = device.CollectResult("probe");
    uint64_t hotplugs = 0;
    if (mpdecision) {
        hotplugs = result.cpu_transitions;  // includes hotplug-driven resyncs
    }
    return Probe{result.avg_gips, result.measured_avg_power_mw, hotplugs};
}

}  // namespace

int
main(int argc, char** argv)
{
    SetLogLevel(LogLevel::kWarn);
    // Only --seed changes this bench, but a misspelt flag still stops it.
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("E14 / §IV-A methodology",
                       "Why mpdecision and touch boost are disabled while profiling");

    // Spotify's bursty decode leaves long idle stretches: exactly where
    // hotplug distorts the power baseline of a pinned-configuration run.
    // One seed for all three, so only the daemon or the boost differs.
    const uint64_t seed = args.SeedOr(7);
    const Probe clean = Measure(false, false, seed);
    const Probe hotplug = Measure(true, false, seed);
    const Probe boosted = Measure(false, true, seed);

    TextTable table({"configuration", "GIPS", "avg power (mW)",
                     "GIPS error", "power error"});
    const auto row = [&](const char* name, const Probe& probe) {
        table.AddRow({name, StrFormat("%.4f", probe.gips),
                      StrFormat("%.0f", probe.power_mw.value()),
                      StrFormat("%+.1f%%", (probe.gips / clean.gips - 1.0) * 100.0),
                      StrFormat("%+.1f%%",
                                (probe.power_mw.value() / clean.power_mw.value() - 1.0) * 100.0)});
    };
    row("paper setup (both disabled)", clean);
    row("mpdecision enabled", hotplug);
    row("touch boost enabled", boosted);
    std::printf("%s\n", table.ToString().c_str());
    std::printf("A profiling row is supposed to measure one fixed configuration;\n"
                "hotplug changes capacity/power mid-run and the touch boost\n"
                "overrides the pinned frequency — the paper disables both\n"
                "(Section IV-A) and so does this repository's profiler.\n");
    return 0;
}
