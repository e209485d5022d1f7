#include "soc/execution_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/random.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

WorkloadDemand
SelfPaced(double ipc, double par, double bpi)
{
    WorkloadDemand demand;
    demand.ipc = ipc;
    demand.parallelism = par;
    demand.mem_bytes_per_instr = bpi;
    return demand;
}

ClusterOperatingPoint
Op(double ghz, double perf_scale, int cores)
{
    ClusterOperatingPoint op;
    op.frequency = Gigahertz(ghz);
    op.perf_scale = perf_scale;
    op.online_cores = cores;
    return op;
}

/** @p demand running alone on one cluster: a background with no demand
 * holds no core time and no bandwidth. */
ExecutionRates
Alone(const ExecutionEngine& engine, const WorkloadDemand& demand, Gigahertz freq,
      MegabytesPerSecond bandwidth, int cores)
{
    WorkloadDemand idle;
    idle.demand_gips = 0.0;
    return engine
        .ComputeShared(demand, idle, {Op(freq.value(), 1.0, cores)},
                       ThreadPlacement::kBigOnly, 0.0, bandwidth)
        .foreground;
}

TEST(ExecutionEngineTest, ComputeBoundScalesWithFrequency)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(1.0, 2.0, 0.0);
    const auto slow =
        Alone(engine, demand, Gigahertz(0.5), MegabytesPerSecond(762), 4);
    const auto fast =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(762), 4);
    EXPECT_NEAR(fast.gips / slow.gips, 4.0, 1e-9);
}

TEST(ExecutionEngineTest, MemoryBoundSaturatesWithBandwidth)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(2.0, 4.0, 8.0);  // heavy traffic
    const auto narrow =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(762), 4);
    const auto wide =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(16250), 4);
    // Bandwidth-dominated: doubling frequency barely helps, bandwidth does.
    EXPECT_GT(wide.gips / narrow.gips, 5.0);
    const auto faster_clock =
        Alone(engine, demand, Gigahertz(2.6496), MegabytesPerSecond(762), 4);
    EXPECT_LT(faster_clock.gips / narrow.gips, 1.1);
}

TEST(ExecutionEngineTest, DemandCapLimitsRateAndLoad)
{
    const ExecutionEngine engine;
    WorkloadDemand demand = SelfPaced(1.0, 2.0, 0.0);
    demand.demand_gips = 0.5;
    const auto rates =
        Alone(engine, demand, Gigahertz(2.0), MegabytesPerSecond(762), 4);
    EXPECT_DOUBLE_EQ(rates.gips, 0.5);
    EXPECT_GT(rates.capacity_gips, 3.9);
    // Busy time shrinks proportionally when demand-capped.
    EXPECT_NEAR(rates.busy_cores, 0.5 / rates.capacity_gips * 2.0, 1e-9);
    EXPECT_LT(rates.LoadFraction(4), 0.1);
}

TEST(ExecutionEngineTest, SaturatedWorkloadBusiesItsCores)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(0.172, 2.5, 0.06);  // AngryBirds-like
    const auto rates =
        Alone(engine, demand, Gigahertz(0.3), MegabytesPerSecond(762), 4);
    EXPECT_NEAR(rates.busy_cores, 2.5, 1e-9);
    EXPECT_DOUBLE_EQ(rates.gips, rates.capacity_gips);
}

TEST(ExecutionEngineTest, TrafficFollowsRateAndPrefetch)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(1.0, 1.0, 0.5);
    const auto rates =
        Alone(engine, demand, Gigahertz(1.0), MegabytesPerSecond(8056), 4);
    // Demand traffic (gips × bytes/instr) plus the prefetcher streams that
    // scale with busy cores — the traffic cpubw_hwmon actually sees.
    const double prefetch = engine.params().prefetch_gbps_per_busy_core;
    EXPECT_NEAR(rates.mem_gbps, rates.gips * 0.5 + rates.busy_cores * prefetch, 1e-12);
}

TEST(ExecutionEngineTest, ParallelismIsCappedByCores)
{
    const ExecutionEngine engine;
    const WorkloadDemand demand = SelfPaced(1.0, 8.0, 0.0);
    const auto rates =
        Alone(engine, demand, Gigahertz(1.0), MegabytesPerSecond(762), 4);
    EXPECT_NEAR(rates.capacity_gips, 4.0, 1e-9);
    EXPECT_NEAR(rates.busy_cores, 4.0, 1e-9);
}

TEST(ExecutionEngineTest, BackgroundStealsBandwidth)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(2.0, 4.0, 4.0);  // memory hungry
    WorkloadDemand bg = SelfPaced(0.6, 1.0, 2.0);
    bg.demand_gips = 0.05;
    const auto alone =
        Alone(engine, fg, Gigahertz(1.0), MegabytesPerSecond(762), 4);
    const auto shared = engine.ComputeShared(fg, bg, {Op(1.0, 1.0, 4)},
                                             ThreadPlacement::kBigOnly, 0.0,
                                             MegabytesPerSecond(762));
    EXPECT_LT(shared.foreground.gips, alone.gips);
    EXPECT_GT(shared.background.gips, 0.0);
}

TEST(ExecutionEngineTest, LoadFractionClamps)
{
    ExecutionRates rates;
    rates.busy_cores = 5.0;
    EXPECT_DOUBLE_EQ(rates.LoadFraction(4), 1.0);
    EXPECT_DOUBLE_EQ(rates.LoadFraction(0), 0.0);
}

/** Property sweep: GIPS is monotonically non-decreasing in both frequency
 * and bandwidth across the full Nexus 6 grid, for several workload mixes. */
class MonotonicityTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(MonotonicityTest, GipsMonotoneOverGrid)
{
    const auto [ipc, par, bpi] = GetParam();
    const ExecutionEngine engine;
    const FrequencyTable freqs = MakeNexus6FrequencyTable();
    const BandwidthTable bws = MakeNexus6BandwidthTable();
    const WorkloadDemand demand = SelfPaced(ipc, par, bpi);

    for (int bw = 0; bw < bws.size(); ++bw) {
        double prev = 0.0;
        for (int f = 0; f < freqs.size(); ++f) {
            const auto rates = Alone(engine, demand, freqs.FrequencyAt(f),
                                     bws.BandwidthAt(bw), 4);
            EXPECT_GE(rates.gips, prev - 1e-12)
                << "f level " << f << " bw level " << bw;
            prev = rates.gips;
        }
    }
    for (int f = 0; f < freqs.size(); ++f) {
        double prev = 0.0;
        for (int bw = 0; bw < bws.size(); ++bw) {
            const auto rates = Alone(engine, demand, freqs.FrequencyAt(f),
                                     bws.BandwidthAt(bw), 4);
            EXPECT_GE(rates.gips, prev - 1e-12)
                << "f level " << f << " bw level " << bw;
            prev = rates.gips;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadMixes, MonotonicityTest,
    ::testing::Values(std::make_tuple(0.55, 3.0, 0.10),   // VidCon-like
                      std::make_tuple(0.80, 3.0, 0.45),   // MobileBench-like
                      std::make_tuple(0.172, 2.5, 0.06),  // AngryBirds-like
                      std::make_tuple(0.12, 1.0, 0.35),   // MXPlayer-like
                      std::make_tuple(1.00, 4.0, 2.00),   // memory-heavy
                      std::make_tuple(1.50, 1.0, 0.00))); // pure compute

TEST(HetExecutionTest, BigOnlyWithIdleLittleMatchesHomogeneousShared)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(0.8, 3.0, 0.45);
    WorkloadDemand bg = SelfPaced(0.5, 1.0, 0.2);
    bg.demand_gips = 0.3;

    const auto shared =
        engine.ComputeShared(fg, bg, {Op(1.5, 1.0, 4)}, ThreadPlacement::kBigOnly,
                             0.08, MegabytesPerSecond(4684));
    const auto het = engine.ComputeShared(
        fg, bg, {Op(1.5, 1.0, 4), Op(0.4, 0.5, 0)}, ThreadPlacement::kBigOnly,
        0.08, MegabytesPerSecond(4684));

    EXPECT_NEAR(het.foreground.gips, shared.foreground.gips, 1e-9);
    EXPECT_NEAR(het.background.gips, shared.background.gips, 1e-9);
    EXPECT_NEAR(het.clusters[0].busy_cores,
                shared.foreground.busy_cores + shared.background.busy_cores,
                1e-9);
    EXPECT_DOUBLE_EQ(het.clusters[1].busy_cores, 0.0);
}

TEST(HetExecutionTest, BothPlacementBeatsBigOnlyForParallelWork)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 8.0, 0.05);
    const WorkloadDemand bg = SelfPaced(0.5, 0.5, 0.1);

    const auto big_only = engine.ComputeShared(
        fg, bg, {Op(1.9, 1.0, 4), Op(1.3, 0.58, 4)}, ThreadPlacement::kBigOnly,
        0.08, MegabytesPerSecond(8132));
    const auto both = engine.ComputeShared(
        fg, bg, {Op(1.9, 1.0, 4), Op(1.3, 0.58, 4)}, ThreadPlacement::kBoth,
        0.08, MegabytesPerSecond(8132));
    EXPECT_GT(both.foreground.gips, big_only.foreground.gips * 1.05);
    EXPECT_GT(both.clusters[1].busy_cores, big_only.clusters[1].busy_cores);
}

TEST(HetExecutionTest, SpanPenaltyCostsThroughput)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 8.0, 0.0);
    const WorkloadDemand bg;  // negligible

    const auto free_span = engine.ComputeShared(
        fg, bg, {Op(1.9, 1.0, 4), Op(1.3, 0.58, 4)}, ThreadPlacement::kBoth,
        0.0, MegabytesPerSecond(8132));
    const auto costly_span = engine.ComputeShared(
        fg, bg, {Op(1.9, 1.0, 4), Op(1.3, 0.58, 4)}, ThreadPlacement::kBoth,
        0.20, MegabytesPerSecond(8132));
    EXPECT_LT(costly_span.foreground.gips, free_span.foreground.gips);
}

TEST(HetExecutionTest, LittleOnlyIsSlowerAndKeepsBigIdle)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 3.0, 0.05);
    const WorkloadDemand bg = SelfPaced(0.5, 0.25, 0.0);

    const auto little_only = engine.ComputeShared(
        fg, bg, {Op(1.9, 1.0, 4), Op(1.3, 0.58, 4)},
        ThreadPlacement::kLittleOnly, 0.08, MegabytesPerSecond(8132));
    const auto big_only = engine.ComputeShared(
        fg, bg, {Op(1.9, 1.0, 4), Op(1.3, 0.58, 4)}, ThreadPlacement::kBigOnly,
        0.08, MegabytesPerSecond(8132));
    EXPECT_LT(little_only.foreground.gips, big_only.foreground.gips);
    // Foreground is confined to LITTLE; only the background may touch big.
    EXPECT_LE(little_only.clusters[0].busy_cores, bg.parallelism + 1e-9);
}

TEST(HetExecutionTest, BackgroundFillsLittleFirst)
{
    const ExecutionEngine engine;
    WorkloadDemand fg = SelfPaced(1.0, 1.0, 0.0);
    fg.demand_gips = 0.1;
    WorkloadDemand bg = SelfPaced(0.6, 1.0, 0.1);
    bg.demand_gips = 0.2;

    const auto het = engine.ComputeShared(
        fg, bg, {Op(1.9, 1.0, 4), Op(1.3, 0.58, 4)}, ThreadPlacement::kBoth,
        0.08, MegabytesPerSecond(8132));
    EXPECT_GT(het.background.gips, 0.0);
    // With one bg thread and plenty of LITTLE capacity, bg load lands there.
    EXPECT_GT(het.clusters[1].busy_cores, 0.0);
}

TEST(HetExecutionTest, BusyCoreSplitSumsToWorkloadBusyCores)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(0.8, 5.0, 0.3);
    const WorkloadDemand bg = SelfPaced(0.5, 1.5, 0.2);

    const auto het = engine.ComputeShared(
        fg, bg, {Op(1.5, 1.0, 4), Op(1.0, 0.58, 4)}, ThreadPlacement::kBoth,
        0.08, MegabytesPerSecond(5421));
    EXPECT_NEAR(het.clusters[0].busy_cores + het.clusters[1].busy_cores,
                het.foreground.busy_cores + het.background.busy_cores, 1e-9);
    EXPECT_GE(het.clusters[0].max_core_load, 0.0);
    EXPECT_LE(het.clusters[0].max_core_load, 1.0);
    EXPECT_GE(het.clusters[1].max_core_load, 0.0);
    EXPECT_LE(het.clusters[1].max_core_load, 1.0);
}

TEST(HetExecutionTest, HigherLittleClockHelpsLittleConfinedWork)
{
    const ExecutionEngine engine;
    const WorkloadDemand fg = SelfPaced(1.0, 4.0, 0.02);
    const WorkloadDemand bg;

    const auto slow = engine.ComputeShared(
        fg, bg, {Op(0.7, 1.0, 4), Op(0.4, 0.58, 4)},
        ThreadPlacement::kLittleOnly, 0.08, MegabytesPerSecond(8132));
    const auto fast = engine.ComputeShared(
        fg, bg, {Op(0.7, 1.0, 4), Op(1.3, 0.58, 4)},
        ThreadPlacement::kLittleOnly, 0.08, MegabytesPerSecond(8132));
    EXPECT_NEAR(fast.foreground.gips / slow.foreground.gips, 1.3 / 0.4, 0.5);
    EXPECT_GT(fast.foreground.gips, slow.foreground.gips * 2.0);
}

/**
 * The historical homogeneous model, kept here as the reference oracle for the
 * one-cluster case: the background runs first on its share of the cores and
 * bandwidth, the foreground on what is left, and the cluster carries both
 * workloads' busy cores and the busier workload's core load.
 */
struct ReferenceShared {
    ExecutionRates foreground;
    ExecutionRates background;
    double busy_cores = 0.0;
    double max_core_load = 0.0;
};

ExecutionRates
ReferenceComputeWith(const ExecutionModelParams& params,
                     const WorkloadDemand& demand, Gigahertz freq,
                     double effective_gbps, double max_cores)
{
    ExecutionRates rates;
    const double usable_cores = std::min(demand.parallelism, max_cores);
    if (usable_cores <= 0.0 || effective_gbps <= 0.0) {
        return rates;
    }
    const double t_cpu_ns = 1.0 / (freq.value() * demand.ipc * usable_cores);
    const double t_mem_ns = demand.mem_bytes_per_instr / effective_gbps;
    const double capacity_gips = 1.0 / (t_cpu_ns + t_mem_ns);
    rates.capacity_gips = capacity_gips;
    rates.gips = std::min(demand.demand_gips, capacity_gips);
    rates.busy_cores = rates.gips / capacity_gips * usable_cores;
    rates.mem_gbps = rates.gips * demand.mem_bytes_per_instr +
                     rates.busy_cores * params.prefetch_gbps_per_busy_core;
    return rates;
}

ReferenceShared
ReferenceComputeShared(const ExecutionModelParams& params,
                       const WorkloadDemand& foreground,
                       const WorkloadDemand& background, Gigahertz freq,
                       MegabytesPerSecond bandwidth, int online_cores)
{
    ReferenceShared shared;
    const double total_gbps =
        bandwidth.value() / 1000.0 * params.bandwidth_efficiency;
    const double cores = static_cast<double>(online_cores);
    WorkloadDemand bg = background;
    bg.demand_gips =
        std::min(bg.demand_gips, params.background_share *
                                     (freq.value() * bg.ipc * bg.parallelism));
    shared.background = ReferenceComputeWith(params, bg, freq,
                                             total_gbps * params.background_share,
                                             cores * params.background_share);
    const double remaining_gbps =
        std::max(1e-9, total_gbps - shared.background.mem_gbps);
    const double remaining_cores =
        std::max(0.25, cores - shared.background.busy_cores);
    shared.foreground = ReferenceComputeWith(params, foreground, freq,
                                             remaining_gbps, remaining_cores);

    shared.busy_cores = shared.foreground.busy_cores + shared.background.busy_cores;
    const auto core_load = [](const ExecutionRates& rates) {
        if (rates.capacity_gips <= 0.0) {
            return 0.0;
        }
        const double load = rates.gips / rates.capacity_gips;
        return load > 1.0 ? 1.0 : load;
    };
    shared.max_core_load =
        std::max(core_load(shared.foreground), core_load(shared.background));
    return shared;
}

void
ExpectSameRates(const ExecutionRates& got, const ExecutionRates& want)
{
    EXPECT_EQ(got.gips, want.gips);
    EXPECT_EQ(got.busy_cores, want.busy_cores);
    EXPECT_EQ(got.mem_gbps, want.mem_gbps);
    EXPECT_EQ(got.capacity_gips, want.capacity_gips);
}

/** One random point of the engine's input space. */
struct EngineCase {
    WorkloadDemand foreground;
    WorkloadDemand background;
    ClusterOperatingPoint cluster;
    MegabytesPerSecond bandwidth{762.0};
};

/**
 * Draws Nexus 6 operating points, 1..4 online cores (hotplug) and workload
 * mixes from idle to saturating, paced and self-paced. The background's
 * parallelism stays within the online cores: there the homogeneous formula
 * and the N-cluster pool agree by construction, while beyond them the pool
 * (like the historical big.LITTLE one) prices only the cores that exist
 * (DESIGN.md §15). Every background environment has parallelism 1.
 */
EngineCase
DrawCase(Rng* rng)
{
    static const FrequencyTable freqs = MakeNexus6FrequencyTable();
    static const BandwidthTable bws = MakeNexus6BandwidthTable();
    const auto paced = [rng](double hi) {
        return rng->Bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                   : rng->Uniform(0.0, hi);
    };
    EngineCase c;
    const int cores = static_cast<int>(rng->UniformInt(1, kNexus6Cores));
    c.cluster = Op(freqs.FrequencyAt(static_cast<int>(
                           rng->UniformInt(0, freqs.size() - 1)))
                       .value(),
                   1.0, cores);
    c.bandwidth =
        bws.BandwidthAt(static_cast<int>(rng->UniformInt(0, bws.size() - 1)));
    c.foreground = SelfPaced(rng->Uniform(0.05, 2.0), rng->Uniform(0.1, 8.0),
                             rng->Uniform(0.0, 4.0));
    c.foreground.demand_gips = paced(6.0);
    c.background = SelfPaced(rng->Uniform(0.05, 2.0), rng->Uniform(0.1, cores),
                             rng->Uniform(0.0, 2.0));
    c.background.demand_gips = paced(1.0);
    return c;
}

TEST(ExecutionEnginePropertyTest, OneClusterMatchesHomogeneousReferenceBitForBit)
{
    ExecutionModelParams steal_more;
    steal_more.background_share = 0.6;
    steal_more.prefetch_gbps_per_busy_core = 0.4;
    for (const ExecutionModelParams& params : {ExecutionModelParams{}, steal_more}) {
        const ExecutionEngine engine(params);
        Rng rng(20170213);
        for (int draw = 0; draw < 20000; ++draw) {
            const EngineCase c = DrawCase(&rng);
            const SharedRates got = engine.ComputeShared(
                c.foreground, c.background, {c.cluster}, ThreadPlacement::kBigOnly,
                0.08, c.bandwidth);
            const ReferenceShared want =
                ReferenceComputeShared(params, c.foreground, c.background,
                                       c.cluster.frequency, c.bandwidth,
                                       c.cluster.online_cores);
            SCOPED_TRACE(::testing::Message() << "draw " << draw);
            ExpectSameRates(got.foreground, want.foreground);
            ExpectSameRates(got.background, want.background);
            ASSERT_EQ(got.clusters.size(), 1u);
            EXPECT_EQ(got.clusters[0].busy_cores, want.busy_cores);
            EXPECT_EQ(got.clusters[0].max_core_load, want.max_core_load);
            if (::testing::Test::HasFailure()) {
                return;
            }
        }
    }
}

TEST(ExecutionEnginePropertyTest, EmptySecondClusterEqualsOneClusterBitForBit)
{
    const ExecutionEngine engine;
    Rng rng(4684);
    for (int draw = 0; draw < 20000; ++draw) {
        const EngineCase c = DrawCase(&rng);
        const ClusterOperatingPoint empty =
            Op(rng.Uniform(0.4, 1.4), rng.Uniform(0.3, 0.9), 0);
        const SharedRates one =
            engine.ComputeShared(c.foreground, c.background, {c.cluster},
                                 ThreadPlacement::kBigOnly, 0.08, c.bandwidth);
        for (const ThreadPlacement placement :
             {ThreadPlacement::kBigOnly, ThreadPlacement::kBoth}) {
            const SharedRates two =
                engine.ComputeShared(c.foreground, c.background, {c.cluster, empty},
                                     placement, 0.08, c.bandwidth);
            SCOPED_TRACE(::testing::Message()
                         << "draw " << draw << " placement "
                         << ThreadPlacementName(placement));
            ExpectSameRates(two.foreground, one.foreground);
            ExpectSameRates(two.background, one.background);
            ASSERT_EQ(two.clusters.size(), 2u);
            EXPECT_EQ(two.clusters[0].busy_cores, one.clusters[0].busy_cores);
            EXPECT_EQ(two.clusters[0].max_core_load, one.clusters[0].max_core_load);
            EXPECT_EQ(two.clusters[1].busy_cores, 0.0);
            EXPECT_EQ(two.clusters[1].max_core_load, 0.0);
            if (::testing::Test::HasFailure()) {
                return;
            }
        }
    }
}

}  // namespace
}  // namespace aeo
