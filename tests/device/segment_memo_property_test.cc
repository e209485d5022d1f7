/**
 * @file
 * Property test of the device's segment memo: reusing the rates and power of
 * an operating state evaluated before changes no value.
 *
 * Each seed drives a device through a random script of the mutators that
 * move a rate or power input: levels pinned through sysfs, thread placement,
 * perf start/stop, controller overhead power, hotplug, background load, app
 * launches, thermal enabled once mid-script, runs of 0.2-500 ms, and power
 * reads at an app boundary before the boundary's own event. Half the seeds
 * make leakage follow temperature and half do not. Levels come from a small
 * set and apps repeat, so states recur and the memo both hits and misses.
 * After every step the device's foreground rate and power must equal, bit
 * for bit, a test-local reference that evaluates the execution model, the
 * GPU co-bottleneck and the power model from the device's current state in
 * the device's operation order.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "apps/background_load.h"
#include "common/random.h"
#include "common/strings.h"
#include "device/device.h"
#include "kernel/sysfs_roots.h"
#include "power/power_model.h"
#include "soc/execution_engine.h"
#include "soc/exynos5433.h"

namespace aeo {
namespace {

constexpr int kSeeds = 100;
constexpr int kStepsPerScript = 40;

/** The device's demand for an empty foreground (home screen idle). */
WorkloadDemand
IdleDemand()
{
    WorkloadDemand demand;
    demand.ipc = 0.5;
    demand.parallelism = 1.0;
    demand.mem_bytes_per_instr = 0.2;
    demand.demand_gips = 0.002;
    return demand;
}

/** A looping game whose render work can saturate the GPU, with a second
 * phase of different component power. */
AppSpec
GpuGameSpec()
{
    AppSpec spec;
    spec.name = "gpu-game";
    spec.loop = true;
    spec.jitter_rel = 0.1;
    AppPhase race;
    race.name = "race";
    race.kind = PhaseKind::kFrame;
    race.demand.ipc = 0.3;
    race.demand.parallelism = 2.0;
    race.demand.mem_bytes_per_instr = 0.1;
    race.duration = SimTime::Millis(300);
    race.frame_work_gi = 0.005;
    race.frame_period = SimTime::Micros(16667);
    race.slack_demand.demand_gips = 0.004;
    race.component_mw = 120.0;
    race.gpu_units_per_gi = 1300.0;
    spec.phases.push_back(race);
    AppPhase menu;
    menu.name = "menu";
    menu.kind = PhaseKind::kTimed;
    menu.demand.ipc = 0.8;
    menu.demand.parallelism = 1.0;
    menu.demand.mem_bytes_per_instr = 0.3;
    menu.demand.demand_gips = 0.05;
    menu.duration = SimTime::Millis(200);
    menu.component_mw = 40.0;
    menu.gpu_units_per_gi = 200.0;
    spec.phases.push_back(menu);
    return spec;
}

/** A short batch job that finishes mid-script, leaving the device idle. */
AppSpec
ShortBatchSpec()
{
    AppSpec spec;
    spec.name = "short-batch";
    AppPhase crunch;
    crunch.name = "crunch";
    crunch.kind = PhaseKind::kWork;
    crunch.demand.ipc = 1.2;
    crunch.demand.parallelism = 3.0;
    crunch.demand.mem_bytes_per_instr = 0.4;
    crunch.work_gi = 0.08;
    crunch.component_mw = 60.0;
    spec.phases.push_back(crunch);
    return spec;
}

bool
SameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** The rates the device should hold, evaluated from scratch. */
struct Reference {
    double fg_gips = 0.0;
    double bg_gips = 0.0;
    double mem_gbps = 0.0;
    double gpu_busy = 0.0;
    std::vector<double> cluster_busy;
};

class SegmentMemoHarness {
  public:
    SegmentMemoHarness(const DeviceConfig& config, uint64_t seed)
        : device_(config), rng_(seed), engine_(config.exec_params),
          power_model_(config.power_params)
    {
        // Userspace governors everywhere, so each pin below sticks.
        for (size_t i = 0; i < device_.num_clusters(); ++i) {
            EXPECT_TRUE(device_.sysfs().Write(ClusterRoot(i) + "/scaling_governor",
                                              "userspace"));
        }
        EXPECT_TRUE(device_.sysfs().Write(
            std::string(kDevfreqSysfsRoot) + "/governor", "userspace"));
        EXPECT_TRUE(device_.sysfs().Write(std::string(kGpuSysfsRoot) + "/governor",
                                          "userspace"));
    }

    /** Runs the random script, checking the device after every step. */
    void
    Run()
    {
        const int thermal_step = static_cast<int>(
            rng_.UniformInt(kStepsPerScript / 4, 3 * kStepsPerScript / 4));
        Check("construction");
        for (int step = 0; step < kStepsPerScript; ++step) {
            if (step == thermal_step) {
                device_.EnableThermal();
                Check("EnableThermal");
            }
            Step();
            if (::testing::Test::HasFailure()) {
                return;
            }
        }
    }

  private:
    std::string
    ClusterRoot(size_t index) const
    {
        const ClusterTopology& topology = device_.topology();
        return CpufreqRoot(topology.cluster(static_cast<int>(index)).first_cpu,
                           topology.num_clusters());
    }

    /** A level from {lowest, middle, highest} most of the time, so states
     * recur; any level otherwise. */
    int
    DrawLevel(int levels)
    {
        if (rng_.Bernoulli(0.8)) {
            return static_cast<int>(rng_.UniformInt(0, 2)) * (levels - 1) / 2;
        }
        return static_cast<int>(rng_.UniformInt(0, levels - 1));
    }

    void
    Step()
    {
        Sysfs& sysfs = device_.sysfs();
        switch (rng_.UniformInt(0, 12)) {
          case 0: {
            const size_t i = PickCluster();
            CpuCluster& cluster = device_.cluster(i);
            const FrequencyTable& table = cluster.table();
            const long long khz = std::llround(
                table.FrequencyAt(DrawLevel(table.size())).kilohertz());
            EXPECT_TRUE(sysfs.Write(ClusterRoot(i) + "/scaling_setspeed",
                                    StrFormat("%lld", khz)));
            return Check("pin cluster level");
          }
          case 1: {
            const BandwidthTable& table = device_.bus().table();
            const long long mbps =
                std::llround(table.BandwidthAt(DrawLevel(table.size())).value());
            EXPECT_TRUE(
                sysfs.Write(std::string(kDevfreqSysfsRoot) + "/userspace/set_freq",
                            StrFormat("%lld", mbps)));
            return Check("pin bus level");
          }
          case 2: {
            const GpuDomain& gpu = device_.gpu();
            const long long mhz =
                std::llround(gpu.MhzAt(DrawLevel(gpu.num_levels())));
            EXPECT_TRUE(
                sysfs.Write(std::string(kGpuSysfsRoot) + "/userspace/set_freq",
                            StrFormat("%lld", mhz)));
            return Check("pin GPU level");
          }
          case 3: {
            const std::vector<ThreadPlacement> admissible =
                device_.topology().AdmissiblePlacements();
            device_.SetThreadPlacement(admissible[static_cast<size_t>(
                rng_.UniformInt(0, static_cast<int64_t>(admissible.size()) - 1))]);
            return Check("SetThreadPlacement");
          }
          case 4:
            // perf changes its power overhead at once, and its CPU overhead
            // only at the device's next rate recompute, which Sync() forces
            // (a later mutator that moves nothing would not).
            if (device_.perf().running()) {
                device_.perf().Stop();
            } else {
                device_.perf().Start();
            }
            CheckPowerOnly("perf start/stop");
            device_.Sync();
            return Check("Sync after perf start/stop");
          case 5: {
            static constexpr double kOverheadsMw[] = {0.0, 25.0, 80.0};
            controller_overhead_mw_ = kOverheadsMw[rng_.UniformInt(0, 2)];
            device_.SetControllerOverheadPower(controller_overhead_mw_);
            return Check("SetControllerOverheadPower");
          }
          case 6: {
            CpuCluster& cluster = device_.cluster(PickCluster());
            cluster.SetOnlineCores(
                static_cast<int>(rng_.UniformInt(1, cluster.num_cores())));
            return Check("SetOnlineCores");
          }
          case 7: {
            static constexpr BackgroundKind kKinds[] = {
                BackgroundKind::kNoLoad, BackgroundKind::kBaseline,
                BackgroundKind::kHeavy};
            const BackgroundEnv env =
                MakeBackgroundEnv(kKinds[rng_.UniformInt(0, 2)]);
            fg_mem_multiplier_ = env.fg_mem_intensity_multiplier;
            device_.SetBackground(env);
            return Check("SetBackground");
          }
          case 8: {
            const AppSpec specs[] = {GpuGameSpec(), ShortBatchSpec(),
                                     MakeAppSpecByName("AngryBirds"),
                                     MakeAppSpecByName("Spotify")};
            device_.LaunchApp(specs[rng_.UniformInt(0, 3)]);
            return Check("LaunchApp");
          }
          case 12:
            return ReadPowerAtNextBoundary();
          default:
            device_.RunFor(SimTime::Micros(rng_.UniformInt(200, 500000)));
            return Check("RunFor");
        }
    }

    /**
     * Reads the power at the next app boundary from an event that runs
     * before the boundary's own: the segment's end has moved an app's
     * phase, and maybe its component power, but not yet the rates. Without
     * a boundary due, or once msm_thermal can move a level in between, it
     * is a plain run.
     */
    void
    ReadPowerAtNextBoundary()
    {
        std::optional<SimTime> next;
        if (device_.foreground() != nullptr) {
            next = device_.foreground()->TimeToBoundary(reference_.fg_gips);
        }
        const std::optional<SimTime> bg_next =
            device_.background().TimeToBoundary(reference_.bg_gips);
        if (bg_next && (!next || *bg_next < *next)) {
            next = bg_next;
        }
        if (!next || device_.thermal_model() != nullptr) {
            device_.RunFor(SimTime::Millis(100));
            return Check("RunFor");
        }
        const SimTime at = device_.sim().Now() + std::max(*next, SimTime::Micros(1));
        device_.sim().ScheduleAt(at, [this] {
            device_.cpufreq().SyncMeters();
            CheckPowerOnly("a power read at a boundary, before its event");
        });
        // Re-arms the boundary's event behind the read.
        device_.Sync();
        device_.RunFor(at - device_.sim().Now());
        Check("RunFor through the boundary");
    }

    size_t
    PickCluster()
    {
        return static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(device_.num_clusters()) - 1));
    }

    /** Rates from scratch: the execution model, then the GPU co-bottleneck. */
    Reference
    ComputeRates()
    {
        WorkloadDemand fg = IdleDemand();
        double units_per_gi = 0.0;
        const AppModel* app = device_.foreground();
        const bool active = app != nullptr && !app->Finished();
        if (active) {
            fg = app->CurrentDemand();
            fg.mem_bytes_per_instr *= fg_mem_multiplier_;
            units_per_gi = app->CurrentGpuUnitsPerGi();
        }
        const double overhead = device_.perf().cpu_overhead_fraction();
        ClusterOperatingPoints points;
        for (size_t i = 0; i < device_.num_clusters(); ++i) {
            const CpuCluster& cluster = device_.cluster(i);
            ClusterOperatingPoint point;
            point.frequency = cluster.frequency();
            point.perf_scale =
                device_.topology().cluster(static_cast<int>(i)).perf_scale;
            point.online_cores = cluster.online_cores();
            points.push_back(point);
        }
        const SharedRates shared = engine_.ComputeShared(
            fg, device_.background().CurrentDemand(), points,
            device_.thread_placement(),
            device_.topology().placement_model().span_penalty,
            device_.bus().bandwidth());
        Reference ref;
        ref.fg_gips = shared.foreground.gips * (1.0 - overhead);
        ref.bg_gips = shared.background.gips;
        ref.mem_gbps = shared.foreground.mem_gbps + shared.background.mem_gbps;
        for (size_t i = 0; i < device_.num_clusters(); ++i) {
            ref.cluster_busy.push_back(shared.clusters[i].busy_cores);
        }
        if (active && units_per_gi > 0.0 && ref.fg_gips > 0.0) {
            const double demand_units = ref.fg_gips * units_per_gi;
            const double capacity = device_.gpu().CapacityAt(device_.gpu().level());
            if (demand_units > capacity) {
                ref.fg_gips *= capacity / demand_units;
                ref.gpu_busy = 1.0;
            } else {
                ref.gpu_busy = demand_units / capacity;
            }
        }
        return ref;
    }

    /** Power from scratch at @p ref's rates and the device's current state. */
    double
    ComputePower(const Reference& ref)
    {
        PowerInputs inputs;
        for (size_t i = 0; i < device_.num_clusters(); ++i) {
            const CpuCluster& cluster = device_.cluster(i);
            const ClusterSpec& spec =
                device_.topology().cluster(static_cast<int>(i));
            ClusterPowerInputs cpu;
            cpu.freq = cluster.frequency();
            cpu.voltage = cluster.voltage();
            cpu.online_cores = cluster.online_cores();
            cpu.busy_cores = ref.cluster_busy[i];
            cpu.dyn_scale = spec.dyn_power_scale;
            cpu.leak_scale = spec.leak_power_scale;
            inputs.clusters.push_back(cpu);
        }
        inputs.bw_level = device_.bus().level();
        inputs.mem_gbps = ref.mem_gbps;
        double component = 0.0;
        if (device_.foreground() != nullptr) {
            component += device_.foreground()->CurrentComponentPower();
        }
        component += device_.background().CurrentComponentPower();
        inputs.app_component_mw = component;
        inputs.gpu_mhz = device_.gpu().mhz();
        inputs.gpu_voltage = device_.gpu().voltage();
        inputs.gpu_busy = ref.gpu_busy;
        inputs.overhead_mw =
            device_.perf().power_overhead_mw() + controller_overhead_mw_;
        inputs.temp_c = device_.thermal_model() != nullptr
                            ? device_.thermal_model()->temperature_c()
                            : kLeakageReferenceC;
        return power_model_.TotalPower(inputs).value();
    }

    /** The rates were recomputed: both rate and power must match. */
    void
    Check(const char* step)
    {
        reference_ = ComputeRates();
        CheckPowerOnly(step);
    }

    /** Only a power input moved: the rates stay those of the last check. */
    void
    CheckPowerOnly(const char* step)
    {
        ++checks_;
        EXPECT_TRUE(SameBits(device_.foreground_gips(), reference_.fg_gips))
            << "after " << step << " (check " << checks_ << "): device "
            << device_.foreground_gips() << " vs reference " << reference_.fg_gips;
        const double power = device_.CurrentPower().value();
        const double expected = ComputePower(reference_);
        EXPECT_TRUE(SameBits(power, expected))
            << "after " << step << " (check " << checks_ << "): device " << power
            << " mW vs reference " << expected << " mW";
    }

    Device device_;
    Rng rng_;
    ExecutionEngine engine_;
    PowerModel power_model_;
    Reference reference_;
    double fg_mem_multiplier_ =
        MakeBackgroundEnv(BackgroundKind::kBaseline).fg_mem_intensity_multiplier;
    double controller_overhead_mw_ = 0.0;
    int checks_ = 0;
};

DeviceConfig
MakeConfig(bool big_little, uint64_t seed)
{
    DeviceConfig config;
    config.seed = seed;
    if (big_little) {
        config.topology = MakeExynos5433Topology();
        config.power_params = MakeExynos5433PowerParams();
    }
    // On odd seeds leakage follows temperature once thermal is on, so a
    // power reused across segments shows. On even seeds the coefficient is
    // 0, as in the chaos campaigns: the device reuses its power under the
    // thermal model, and the reference still evaluates it at the current
    // temperature.
    config.power_params.leak_temp_coeff_per_c = seed % 2 == 1 ? 0.02 : 0.0;
    return config;
}

void
RunSeeds(bool big_little)
{
    for (int seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(StrFormat("seed %d", seed));
        const auto s = static_cast<uint64_t>(seed);
        SegmentMemoHarness harness(MakeConfig(big_little, s), 0x5E6D0 + s);
        harness.Run();
        if (::testing::Test::HasFailure()) {
            return;
        }
    }
}

TEST(SegmentMemoPropertyTest, Nexus6MatchesTheReferenceAfterEveryStep)
{
    RunSeeds(/*big_little=*/false);
}

TEST(SegmentMemoPropertyTest, Exynos5433MatchesTheReferenceAfterEveryStep)
{
    RunSeeds(/*big_little=*/true);
}

}  // namespace
}  // namespace aeo
