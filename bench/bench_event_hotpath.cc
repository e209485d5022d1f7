/**
 * @file
 * P2 — Event-core hot path: throughput and allocation behaviour of the slab
 * event queue (DESIGN.md §14) under the three shapes the simulator actually
 * runs:
 *
 *  - steady-state periodic dispatch (the 5 kHz power monitor, governor and
 *    thermal timers): repeating events re-arming their slab record in place;
 *  - one-shot churn (device boundary events): schedule → fire → reschedule
 *    through the free list;
 *  - schedule/cancel mix (deadline supervision): ids armed and cancelled
 *    without ever firing;
 *  - batched power sampling: a Monsoon monitor on the simulator's sample
 *    clock, caught up by a 20 ms timer with one noise draw per catch-up
 *    (its rate columns count samples);
 *  - fault-injected power sampling: the same monitor guarded by a
 *    FaultInjector, caught up by the injector's sync hook when the timer
 *    reads another path through it: one meter decision per sample, one
 *    noise draw per catch-up;
 *  - meter drops: the same, with a rule that drops half the meter's
 *    samples, each recorded as a fault-trace event;
 *  - a pinned device: the whole plant on one profiling run's shape, where
 *    every event ends a segment and recomputes its rates and power through
 *    the device's segment memo.
 *
 * It also reports, without a gate, what building the plant costs: the
 * allocations of one Device build (the Device object included) and of one
 * SimPlatform construction on it, on the Nexus 6 and on the Exynos 5433.
 * perfbench's setup_s times six device builds per workload.
 *
 * This binary overrides global operator new/delete with a counting hook, so
 * allocations per dispatch are *measured*, not inferred: after warmup the
 * periodic, one-shot, every monitor and the pinned-device paths must report
 * 0.000 (the property test under tests/sim asserts the same invariant for
 * the event queue; this bench reports it next to the throughput numbers it
 * buys).
 *
 * Emits BENCH_event_hotpath.json (events/sec, ns/dispatch,
 * allocations/dispatch per scenario, allocations per build). Timing fields
 * vary run to run — this artifact is a perf record, not a determinism-gated
 * snapshot.
 */
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "apps/background_load.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "device/device.h"
#include "fault/fault_injector.h"
#include "kernel/sysfs_roots.h"
#include "platform/sim_platform.h"
#include "power/monsoon.h"
#include "power/power_model.h"
#include "sim/simulator.h"
#include "soc/exynos5433.h"

namespace {

/** Heap operations observed by the counting hook below. */
std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hook: every heap allocation in this binary passes
// through here. Lives in this TU only — the hook is per-binary, the library
// under test is unchanged. The operators stay out of line: inlined into a
// new-expression's cleanup, the malloc/free pair behind them reads to gcc
// as a new/free mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

[[gnu::noinline]] void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms too (std::stable_sort's temporary buffer): a sanitizer
// runtime supplies its own, whose blocks the delete below could not free.
[[gnu::noinline]] void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

[[gnu::noinline]] void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return ::operator new(size, std::nothrow);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {


struct Scenario {
    std::string name;
    uint64_t dispatches = 0;
    double seconds = 0.0;
    uint64_t allocations = 0;

    double events_per_second() const
    {
        return seconds > 0.0 ? static_cast<double>(dispatches) / seconds : 0.0;
    }
    double ns_per_dispatch() const
    {
        return dispatches > 0
                   ? seconds * 1e9 / static_cast<double>(dispatches)
                   : 0.0;
    }
    double allocs_per_dispatch() const
    {
        return dispatches > 0 ? static_cast<double>(allocations) /
                                    static_cast<double>(dispatches)
                              : 0.0;
    }
};

/**
 * Steady-state periodic dispatch: @p series repeating events with co-prime
 * periods (so firings interleave rather than batch), run until ~@p total
 * dispatches. Warmup grows the slab and the heap first; the measured
 * region must not allocate.
 */
Scenario
RunPeriodic(uint64_t total, int series)
{
    aeo::Simulator sim;
    std::vector<uint64_t> fired(static_cast<size_t>(series), 0);
    // Co-prime-ish microsecond periods near 200 us — ~5 kHz, the monitor's
    // regime.
    for (int i = 0; i < series; ++i) {
        uint64_t* slot = &fired[static_cast<size_t>(i)];
        sim.ScheduleEvery(aeo::SimTime::Micros(191 + 2 * i),
                          [slot] { ++*slot; });
    }
    // Warmup: populate the slab, the heap vector, and the executed counters.
    sim.RunFor(aeo::SimTime::Millis(20));

    const uint64_t start_events = sim.executed_events();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (sim.executed_events() - start_events < total) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }
    const double seconds =
        aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "periodic_steady_state";
    s.dispatches = sim.executed_events() - start_events;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * One-shot churn: @p chains self-rescheduling one-shot events — the device
 * boundary-event shape. Each firing re-schedules through Acquire/Release on
 * the free list; after warmup the slab stops growing and dispatch is
 * allocation-free.
 */
Scenario
RunOneShotChurn(uint64_t total, int chains)
{
    aeo::Simulator sim;
    struct Chain {
        aeo::Simulator* sim;
        aeo::SimTime period;
        void Fire()
        {
            sim->ScheduleAfter(period, [this] { Fire(); });
        }
    };
    std::vector<Chain> chain_objs;
    chain_objs.reserve(static_cast<size_t>(chains));
    for (int i = 0; i < chains; ++i) {
        chain_objs.push_back(Chain{&sim, aeo::SimTime::Micros(193 + 2 * i)});
    }
    for (Chain& c : chain_objs) {
        c.Fire();
    }
    sim.RunFor(aeo::SimTime::Millis(20));

    const uint64_t start_events = sim.executed_events();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (sim.executed_events() - start_events < total) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }
    const double seconds =
        aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "oneshot_churn";
    s.dispatches = sim.executed_events() - start_events;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * Schedule/cancel mix: events armed and cancelled before firing (the
 * deadline-supervisor shape). Counts a schedule+cancel pair as one
 * dispatch-equivalent for the rate columns.
 */
Scenario
RunScheduleCancel(uint64_t total)
{
    aeo::Simulator sim;
    // Keep one repeating heartbeat so time can advance past cancelled ids.
    uint64_t beats = 0;
    sim.ScheduleEvery(aeo::SimTime::Millis(1), [&beats] { ++beats; });
    sim.RunFor(aeo::SimTime::Millis(5));

    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    uint64_t pairs = 0;
    while (pairs < total) {
        const aeo::EventId id =
            sim.ScheduleAfter(aeo::SimTime::Millis(10), [] {});
        sim.Cancel(id);
        ++pairs;
        if ((pairs & 0xfff) == 0) {
            sim.RunFor(aeo::SimTime::Millis(1));
        }
    }
    const double seconds =
        aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "schedule_cancel";
    s.dispatches = pairs;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * Batched power sampling: a monitor on the sample clock (5 kHz ticks that
 * are not events) plus a 20 ms timer whose callback catches it up, the way
 * a device's plant changes do; each catch-up records its 100 samples with
 * one noise draw. Samples stand in for dispatches in the rate columns;
 * after warmup recording them must not allocate.
 */
Scenario
RunBatchedMonitor(uint64_t total)
{
    aeo::Simulator sim;
    aeo::MonsoonMonitor monitor(&sim, [] { return aeo::Milliwatts(1000.0); },
                                1);
    sim.ScheduleEvery(aeo::SimTime::Millis(20),
                      [&monitor] { monitor.CatchUp(); });
    monitor.Start();
    sim.RunFor(aeo::SimTime::Millis(20));

    const uint64_t start_samples = monitor.sample_count();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (monitor.sample_count() - start_samples < total) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }
    const double seconds = aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "batched_monitor";
    s.dispatches = monitor.sample_count() - start_samples;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * Fault-injected power sampling: the batched_monitor set-up plus an
 * attached injector whose one rule matches another path. The 20 ms timer
 * reads that path through the injector, whose sync hook catches the monitor
 * up first. No rule covers the meter, so each block is one clean decision
 * that only counts its ticks, and the kept ticks share one noise draw.
 * After warmup neither may allocate.
 */
Scenario
RunInjectedMonitor(uint64_t total)
{
    aeo::Simulator sim;
    aeo::FaultInjector injector(1);
    aeo::FaultRule rule;
    rule.path_prefix = "/sys/devices/system/cpu/cpu0/cpufreq";
    injector.AddRule(rule);
    aeo::MonsoonMonitor monitor(&sim, [] { return aeo::Milliwatts(1000.0); },
                                1);
    monitor.SetFaultInjector(&injector);
    // Built once: a sysfs path outgrows the small-string buffer, so a
    // temporary would allocate on every read.
    const std::string path =
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq";
    sim.ScheduleEvery(aeo::SimTime::Millis(20),
                      [&injector, &path] { injector.OnRead(path); });
    monitor.Start();
    sim.RunFor(aeo::SimTime::Millis(20));

    const uint64_t start_samples = monitor.sample_count();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (monitor.sample_count() - start_samples < total) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }
    const double seconds = aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "injected_monitor";
    s.dispatches = monitor.sample_count() - start_samples;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * Meter drops: the injected_monitor set-up plus a rule that fails each
 * meter sample with probability 0.5, so every sample is decided on its own
 * and every dropped one appends an event to the fault trace. Warmup records
 * until the trace's capacity holds an event for each sample of the timed
 * region, which then covers @p seconds of sampling; its drops must all be
 * recorded (the trace stays below its limit) without an allocation. The
 * rate columns count samples, kept and dropped.
 */
Scenario
RunMeterDropMonitor(int64_t seconds)
{
    aeo::Simulator sim;
    aeo::FaultInjector injector(1);
    aeo::FaultRule rule;
    rule.path_prefix = "/sys/devices/system/cpu/cpu0/cpufreq";
    injector.AddRule(rule);
    aeo::FaultRule drops;
    drops.path_prefix = aeo::kMonsoonFaultPath;
    drops.fail_probability = 0.5;
    injector.AddRule(drops);
    aeo::MonsoonMonitor monitor(&sim, [] { return aeo::Milliwatts(1000.0); },
                                1);
    monitor.SetFaultInjector(&injector);
    const std::string path =
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq";
    sim.ScheduleEvery(aeo::SimTime::Millis(20),
                      [&injector, &path] { injector.OnRead(path); });
    monitor.Start();
    const auto decided = [&monitor] {
        return monitor.sample_count() + monitor.dropped_sample_count();
    };
    const size_t timed_samples = static_cast<size_t>(seconds) * 5000;
    while (injector.trace().capacity() <
           injector.trace().size() + timed_samples) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }

    const uint64_t start_samples = decided();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    sim.RunFor(aeo::SimTime::FromSeconds(seconds));
    monitor.CatchUp();
    const double seconds_taken = aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;
    AEO_ASSERT(injector.trace().size() < aeo::FaultInjector::kTraceLimit,
               "the fault trace filled up, so not every drop was recorded");

    Scenario s;
    s.name = "meter_drop_monitor";
    s.dispatches = decided() - start_samples;
    s.seconds = seconds_taken;
    s.allocations = allocs;
    return s;
}

/**
 * A pinned device in the shape of one Table VI profiling run: AngryBirds on
 * the Exynos 5433 pinned through PinHetConfiguration, msm-adreno-tz on the
 * GPU and the baseline background. Its events are app-phase boundaries and
 * GPU-governor ticks; each one ends a plant segment, and most then recompute
 * the rates and power of a state the segment memo already holds. After
 * warmup the measured region must not allocate.
 */
Scenario
RunPinnedDevice(uint64_t total)
{
    aeo::DeviceConfig config;
    config.topology = aeo::MakeExynos5433Topology();
    config.power_params = aeo::MakeExynos5433PowerParams();
    aeo::Device device(config);
    device.SetBackground(aeo::MakeBackgroundEnv(aeo::BackgroundKind::kBaseline));
    device.sysfs().Write(std::string(aeo::kGpuSysfsRoot) + "/governor",
                         "msm-adreno-tz");
    device.PinHetConfiguration(
        aeo::HetConfig{3, 2, 4, aeo::ThreadPlacement::kBoth});
    device.LaunchApp(aeo::MakeAppSpecByName("AngryBirds"));
    device.RunFor(aeo::SimTime::FromSeconds(20));

    const uint64_t start_events = device.sim().executed_events();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (device.sim().executed_events() - start_events < total) {
        device.RunFor(aeo::SimTime::FromSeconds(50));
    }
    const double seconds = aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "pinned_device";
    s.dispatches = device.sim().executed_events() - start_events;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/** Heap allocations of building the plant on one topology. */
struct BuildCost {
    std::string topology;
    /** One Device build, the Device object included. */
    uint64_t device = 0;
    /** One SimPlatform construction on that device, its object included. */
    uint64_t sim_platform = 0;
};

BuildCost
MeasureBuildCost(const std::string& topology, const aeo::DeviceConfig& config)
{
    BuildCost cost;
    cost.topology = topology;
    uint64_t start = g_alloc_count.load(std::memory_order_relaxed);
    const auto device = std::make_unique<aeo::Device>(config);
    cost.device = g_alloc_count.load(std::memory_order_relaxed) - start;
    start = g_alloc_count.load(std::memory_order_relaxed);
    const auto platform = std::make_unique<aeo::platform::SimPlatform>(device.get());
    cost.sim_platform = g_alloc_count.load(std::memory_order_relaxed) - start;
    return cost;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("P2 / event hot path",
                       "Slab event core: dispatch rate and allocations");

    const uint64_t total = args.fast ? 2'000'000ULL : 10'000'000ULL;
    std::vector<Scenario> scenarios;
    scenarios.push_back(RunPeriodic(total, 8));
    scenarios.push_back(RunOneShotChurn(total, 8));
    scenarios.push_back(RunScheduleCancel(total / 2));
    scenarios.push_back(RunBatchedMonitor(total));
    scenarios.push_back(RunInjectedMonitor(total));
    // The trace's kTraceLimit bounds this region, so it is short at any size.
    scenarios.push_back(RunMeterDropMonitor(10));
    scenarios.push_back(RunPinnedDevice(total / 10));

    TextTable table({"Scenario", "Dispatches", "Events/s", "ns/dispatch",
                     "Allocs/dispatch"});
    for (const Scenario& s : scenarios) {
        table.AddRow({s.name, StrFormat("%llu", (unsigned long long)s.dispatches),
                      StrFormat("%.3g", s.events_per_second()),
                      StrFormat("%.1f", s.ns_per_dispatch()),
                      StrFormat("%.3f", s.allocs_per_dispatch())});
    }
    std::printf("%s\n", table.ToString().c_str());

    DeviceConfig exynos;
    exynos.topology = MakeExynos5433Topology();
    exynos.power_params = MakeExynos5433PowerParams();
    const std::vector<BuildCost> builds = {MeasureBuildCost("nexus6", {}),
                                           MeasureBuildCost("exynos5433", exynos)};
    TextTable build_table({"Topology", "Device build allocs",
                           "SimPlatform allocs", "Total"});
    for (const BuildCost& b : builds) {
        build_table.AddRow(
            {b.topology, StrFormat("%llu", (unsigned long long)b.device),
             StrFormat("%llu", (unsigned long long)b.sim_platform),
             StrFormat("%llu", (unsigned long long)(b.device + b.sim_platform))});
    }
    std::printf("%s\n", build_table.ToString().c_str());

    bool hot_paths_allocation_free = true;
    for (const Scenario& s : scenarios) {
        if (s.name != "schedule_cancel" && s.allocations != 0) {
            hot_paths_allocation_free = false;
            std::fprintf(stderr,
                         "FAIL: %s performed %llu heap allocations in the "
                         "steady state\n",
                         s.name.c_str(), (unsigned long long)s.allocations);
        }
    }

    std::string json = "{\n  \"bench\": \"event_hotpath\",\n  \"scenarios\": [\n";
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario& s = scenarios[i];
        json += StrFormat(
            "    {\"name\": \"%s\", \"dispatches\": %llu, "
            "\"events_per_second\": %.0f, \"ns_per_dispatch\": %.2f, "
            "\"allocations\": %llu, \"allocs_per_dispatch\": %.6f}%s\n",
            s.name.c_str(), (unsigned long long)s.dispatches,
            s.events_per_second(), s.ns_per_dispatch(),
            (unsigned long long)s.allocations, s.allocs_per_dispatch(),
            i + 1 < scenarios.size() ? "," : "");
    }
    json += "  ],\n  \"build_allocations\": [\n";
    for (size_t i = 0; i < builds.size(); ++i) {
        json += StrFormat(
            "    {\"topology\": \"%s\", \"device\": %llu, "
            "\"sim_platform\": %llu}%s\n",
            builds[i].topology.c_str(), (unsigned long long)builds[i].device,
            (unsigned long long)builds[i].sim_platform,
            i + 1 < builds.size() ? "," : "");
    }
    json += StrFormat("  ],\n  \"hot_paths_allocation_free\": %s\n}\n",
                      hot_paths_allocation_free ? "true" : "false");
    const std::string json_path = "BENCH_event_hotpath.json";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    AEO_ASSERT(f != nullptr, "cannot open %s", json_path.c_str());
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("Wrote %s\n", json_path.c_str());

    return hot_paths_allocation_free ? 0 : 1;
}
