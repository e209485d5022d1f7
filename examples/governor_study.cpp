/**
 * @file
 * Example: comparing every stock governor on one application.
 *
 * Reproduces the motivating §II observation in miniature: the general-
 * purpose governors each land somewhere different on the power/performance
 * plane, and none of them is energy-optimal for the application at hand.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "device/device.h"

using namespace aeo;

namespace {

/** Selects @p governor through @p path. A rejected name (misspelt, or no
 * longer registered) ends the study: running on under whatever governor
 * was active would silently report the wrong row. */
void
SelectGovernor(Device& device, const std::string& path, const std::string& governor)
{
    if (!device.sysfs().Write(path, governor)) {
        std::fprintf(stderr, "%s rejected governor '%s'\n", path.c_str(),
                     governor.c_str());
        std::exit(1);
    }
}

RunResult
RunWithGovernors(const std::string& app, const std::string& cpu_governor,
                 const std::string& bus_governor, uint64_t seed)
{
    DeviceConfig config;
    config.seed = seed;
    Device device(config);
    SelectGovernor(device, std::string(kCpufreqSysfsRoot) + "/scaling_governor",
                   cpu_governor);
    SelectGovernor(device, std::string(kDevfreqSysfsRoot) + "/governor",
                   bus_governor);
    device.LaunchApp(MakeAppSpecByName(app));
    device.RunFor(SimTime::FromSeconds(60));
    return device.CollectResult(cpu_governor + "+" + bus_governor);
}

}  // namespace

int
main(int argc, char** argv)
{
    SetLogLevel(LogLevel::kWarn);
    const std::string app = argc > 1 ? argv[1] : "AngryBirds";
    if (!IsBuiltinApp(app)) {
        std::fprintf(stderr, "unknown app '%s'\n", app.c_str());
        return 1;
    }
    std::printf("Stock governors on %s (60 s runs, baseline load)\n\n", app.c_str());

    const std::vector<std::pair<std::string, std::string>> combos = {
        {"interactive", "cpubw_hwmon"},  // the Android default pair
        {"ondemand", "cpubw_hwmon"},
        {"performance", "performance"},
        {"powersave", "powersave"},
    };

    TextTable table({"governors (cpu + bus)", "GIPS", "avg power (mW)",
                     "energy (J)", "CPU switches"});
    for (const auto& [cpu, bus] : combos) {
        const RunResult result = RunWithGovernors(app, cpu, bus, 21);
        table.AddRow({cpu + " + " + bus, StrFormat("%.3f", result.avg_gips),
                      StrFormat("%.0f", result.measured_avg_power_mw.value()),
                      StrFormat("%.1f", result.measured_energy_j),
                      StrFormat("%llu", static_cast<unsigned long long>(
                                            result.cpu_transitions))});
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("performance wastes energy on paced apps; powersave drops\n"
                "frames; the load-tracking governors sit in between — and an\n"
                "application-specific controller can beat all of them (§II-C).\n");
    return 0;
}
