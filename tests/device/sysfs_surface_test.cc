/**
 * @file
 * Sysfs surface oracle: every file the DVFS policies expose on a Nexus 6
 * and on an Exynos 5433 device, read at three points of a run, plus the
 * outcome of a battery of writes to every userspace target and every limit
 * file, compared with a committed golden text. A refactor of the kernel
 * layer must leave every path, read format and write outcome unchanged.
 *
 * The three points: a fresh device; after UseDefaultGovernors() and 1 s of
 * AngryBirds; and after the writes. The writes run under the userspace
 * governors and cover, per node, each table value, each value halved and
 * rounded up (what a silent clamp delivers), 0, -5 and a non-number. Each
 * write records its FaultErrc and the level of every domain.
 *
 * Then the device's pin paths, each on a fresh device: every node, every
 * domain's level and the thread placement after UseUserspaceGovernors(),
 * after PinConfiguration() for a few (CPU, bus) pairs, and after
 * PinHetConfiguration() for every placement the topology admits.
 *
 * On a mismatch the test names the first differing line and leaves the
 * full actual text in the gtest temp directory.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "common/strings.h"
#include "device/device.h"
#include "power/power_model.h"
#include "soc/exynos5433.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

/** The directory holding @p path's policy (a userspace/ node's parent). */
std::string
PolicyDirOf(const std::string& path)
{
    std::string dir = path.substr(0, path.rfind('/'));
    if (EndsWith(dir, "/userspace")) {
        dir = dir.substr(0, dir.rfind('/'));
    }
    return dir;
}

/** Every domain's current level: CPU clusters, then bus, then GPU. */
std::string
Levels(Device& device)
{
    std::string out;
    for (size_t i = 0; i < device.num_clusters(); ++i) {
        out += StrFormat("%d,", device.cluster(i).level());
    }
    out += StrFormat("%d,%d", device.bus().level(), device.gpu().level());
    return out;
}

/** One line per file: path, then its contents (or the read error). */
void
Snapshot(Device& device, const std::string& label, std::ostringstream* out)
{
    *out << "== " << label << " levels=" << Levels(device) << "\n";
    for (const std::string& path : device.sysfs().List("/sys")) {
        const SysfsReadResult read = device.sysfs().TryRead(path);
        *out << path << " = " << (read.ok() ? read.value : FaultErrcName(read.errc))
             << "\n";
    }
}

void
WriteAndRecord(Device& device, const std::string& path, const std::string& value,
               std::ostringstream* out)
{
    const FaultErrc errc = device.sysfs().TryWrite(path, value);
    *out << "W " << path << " <- " << value << " : " << FaultErrcName(errc)
         << " levels=" << Levels(device) << "\n";
}

/** The value battery for one target node: every table value and its half
 * (rounded up), then the rejections. */
std::vector<std::string>
WriteValues(Device& device, const std::string& path)
{
    const std::string dir = PolicyDirOf(path);
    std::optional<std::string> table;
    for (const char* name :
         {"/scaling_available_frequencies", "/available_frequencies"}) {
        if (device.sysfs().Exists(dir + name)) {
            table = device.sysfs().Read(dir + name);
        }
    }
    EXPECT_TRUE(table.has_value()) << "no frequency table beside " << path;
    std::vector<std::string> values;
    for (const std::string& field : Split(table.value_or(""), ' ')) {
        long long value = 0;
        if (!ParseInt64(field, &value)) {
            continue;
        }
        values.push_back(StrFormat("%lld", value));
        values.push_back(StrFormat("%lld", (value + 1) / 2));
    }
    values.insert(values.end(), {"0", "-5", "junk"});
    return values;
}

std::string
DescribeSurface(const std::string& name, const DeviceConfig& config)
{
    std::ostringstream out;
    out << "# " << name << "\n";
    Device device(config);
    Snapshot(device, "fresh", &out);

    device.UseDefaultGovernors();
    device.LaunchApp(MakeAppSpecByName("AngryBirds"));
    device.RunFor(SimTime::FromSeconds(1));
    Snapshot(device, "stock governors after 1 s of AngryBirds", &out);

    const std::vector<std::string> paths = device.sysfs().List("/sys");
    for (const std::string& path : paths) {
        if (EndsWith(path, "/scaling_governor") || EndsWith(path, "/governor")) {
            WriteAndRecord(device, path, "userspace", &out);
        }
    }
    for (const std::string& path : paths) {
        if (EndsWith(path, "/scaling_setspeed") || EndsWith(path, "/set_freq") ||
            EndsWith(path, "min_freq") || EndsWith(path, "max_freq")) {
            for (const std::string& value : WriteValues(device, path)) {
                WriteAndRecord(device, path, value, &out);
            }
        }
    }
    Snapshot(device, "after the writes", &out);
    return out.str();
}

/** A fresh device's surface after @p pin, with the thread placement. */
void
SnapshotPinned(const DeviceConfig& config, const std::string& label,
               const std::function<void(Device&)>& pin, std::ostringstream* out)
{
    Device device(config);
    pin(device);
    Snapshot(device,
             label + " placement=" + ThreadPlacementName(device.thread_placement()),
             out);
}

std::string
DescribePinPaths(const std::string& name, const DeviceConfig& config)
{
    std::ostringstream out;
    out << "# " << name << " pin paths\n";
    SnapshotPinned(config, "UseUserspaceGovernors()",
                   [](Device& device) { device.UseUserspaceGovernors(); }, &out);

    const ClusterTopology topology =
        config.topology ? *config.topology : MakeNexus6Topology();
    const int max_cpu = topology.primary().table.max_level();
    const int max_bw = topology.bandwidth_table().max_level();
    for (const auto& [cpu, bw] :
         std::vector<std::pair<int, int>>{{0, 0}, {4, 2}, {max_cpu, max_bw}}) {
        SnapshotPinned(
            config, StrFormat("PinConfiguration(%d, %d)", cpu, bw),
            [cpu, bw](Device& device) { device.PinConfiguration(cpu, bw); }, &out);
    }

    for (const ThreadPlacement placement : topology.AdmissiblePlacements()) {
        const HetConfig het{3, topology.is_heterogeneous() ? 2 : 0, 4, placement};
        SnapshotPinned(config, "PinHetConfiguration" + het.ToString(),
                       [het](Device& device) { device.PinHetConfiguration(het); },
                       &out);
    }
    return out.str();
}

std::string
DescribeBothTopologies()
{
    DeviceConfig exynos;
    exynos.topology = MakeExynos5433Topology();
    exynos.power_params = MakeExynos5433PowerParams();
    return DescribeSurface("Nexus 6", DeviceConfig{}) +
           DescribeSurface("Exynos 5433", exynos) +
           DescribePinPaths("Nexus 6", DeviceConfig{}) +
           DescribePinPaths("Exynos 5433", exynos);
}

TEST(SysfsSurfaceTest, MatchesTheGoldenSurface)
{
    const std::string actual = DescribeBothTopologies();

    std::ifstream golden_file(AEO_SYSFS_SURFACE_GOLDEN);
    ASSERT_TRUE(golden_file.good()) << "cannot open " << AEO_SYSFS_SURFACE_GOLDEN;
    std::stringstream golden;
    golden << golden_file.rdbuf();
    if (actual == golden.str()) {
        return;
    }

    const std::string actual_path = ::testing::TempDir() + "sysfs_surface.actual";
    std::ofstream(actual_path) << actual;
    std::istringstream want(golden.str());
    std::istringstream got(actual);
    std::string want_line;
    std::string got_line;
    for (int line = 1;; ++line) {
        const bool more_want = static_cast<bool>(std::getline(want, want_line));
        const bool more_got = static_cast<bool>(std::getline(got, got_line));
        if (!more_want && !more_got) {
            break;
        }
        if (more_want != more_got || want_line != got_line) {
            FAIL() << "sysfs surface differs from the golden at line " << line
                   << "\n  golden: " << (more_want ? want_line : "<end>")
                   << "\n  actual: " << (more_got ? got_line : "<end>")
                   << "\nfull actual text: " << actual_path;
        }
    }
    FAIL() << "sysfs surface differs from the golden (line endings?); actual: "
           << actual_path;
}

}  // namespace
}  // namespace aeo
