/**
 * @file
 * Sparse profiling's interpolated rows are chord points. For each CPU
 * level, ProfileTable::InterpolateBandwidths interpolates speedup and power
 * linearly in the same bandwidth between the two measured extremes, so every
 * interpolated row lies on the chord of two measured rows in the (speedup,
 * power) plane. The energy optimizer already mixes a chord's two ends in
 * time (Fig. 3), so the rows cannot lower its optimum: dropping them leaves
 * the expected power at every required speedup unchanged up to rounding.
 *
 * Checked on the six evaluation apps' sparse --fast tables at seed 2017,
 * unpruned, and on random tables. The law is byte-neutral: it says what
 * interpolation cannot add, whichever rows the hull's tie rule keeps.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/energy_optimizer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "soc/nexus6.h"

namespace aeo {
namespace {

constexpr double kRelativeTolerance = 1e-12;
constexpr int kSpeedupSteps = 2000;

/** The largest relative gap between the expected powers the two tables'
 * optimizers reach, over kSpeedupSteps + 1 required speedups spanning
 * @p measured's range. */
double
MaxRelativePowerGap(const ProfileTable& interpolated, const ProfileTable& measured)
{
    const EnergyOptimizer with_rows(&interpolated);
    const EnergyOptimizer without_rows(&measured);
    const double lo = measured.min_speedup();
    const double hi = measured.max_speedup();
    double worst = 0.0;
    for (int i = 0; i <= kSpeedupSteps; ++i) {
        const double speedup = lo + (hi - lo) * i / kSpeedupSteps;
        const double with_mw =
            with_rows.Optimize(speedup, 2.0).expected_power_mw.value();
        const double without_mw =
            without_rows.Optimize(speedup, 2.0).expected_power_mw.value();
        worst = std::max(worst, std::abs(with_mw - without_mw) / without_mw);
    }
    return worst;
}

/** @p table's measured rows: each CPU level's two bandwidth extremes. */
ProfileTable
MeasuredRows(const ProfileTable& table)
{
    std::vector<ProfileEntry> measured;
    for (const ProfileEntry& entry : table.entries()) {
        int lo = entry.config.bw_level;
        int hi = entry.config.bw_level;
        for (const ProfileEntry& other : table.entries()) {
            if (other.config.cpu_level == entry.config.cpu_level &&
                other.config.gpu_level == entry.config.gpu_level) {
                lo = std::min(lo, other.config.bw_level);
                hi = std::max(hi, other.config.bw_level);
            }
        }
        if (entry.config.bw_level == lo || entry.config.bw_level == hi) {
            measured.push_back(entry);
        }
    }
    return ProfileTable(table.app_name(), std::move(measured),
                        table.base_speed_gips());
}

TEST(InterpolatedRowsPropertyTest, EvaluationAppsSparseTablesKeepTheOptimum)
{
    const ExperimentHarness harness;
    ExperimentOptions options;
    options.profile_runs = 1;
    options.seed = 2017;
    options.prune_epsilon = 0.0;
    for (const std::string& app : EvaluationAppNames()) {
        const ProfileTable table = harness.ProfileApp(app, options);
        const ProfileTable measured = MeasuredRows(table);
        ASSERT_LT(measured.size(), table.size())
            << app << " has no interpolated row";
        EXPECT_LE(MaxRelativePowerGap(table, measured), kRelativeTolerance) << app;
    }
}

TEST(InterpolatedRowsPropertyTest, RandomTablesKeepTheOptimum)
{
    const BandwidthTable bw_table = MakeNexus6BandwidthTable();
    Rng rng(2017);
    for (int trial = 0; trial < 300; ++trial) {
        // 1-9 distinct CPU levels, each measured at two random bandwidths.
        // Half the tables rise with both levels, as profiles do; the rest
        // are arbitrary point sets.
        const bool monotone = trial % 2 == 0;
        std::vector<int> cpu_levels(kNexus6CpuLevels);
        for (int level = 0; level < kNexus6CpuLevels; ++level) {
            cpu_levels[level] = level;
        }
        for (int i = kNexus6CpuLevels - 1; i > 0; --i) {
            std::swap(cpu_levels[i], cpu_levels[rng.UniformInt(0, i)]);
        }
        cpu_levels.resize(static_cast<size_t>(rng.UniformInt(1, 9)));
        std::vector<ProfileEntry> rows;
        for (const int cpu : cpu_levels) {
            const auto lo =
                static_cast<int>(rng.UniformInt(0, kNexus6BwLevels - 2));
            const auto hi =
                static_cast<int>(rng.UniformInt(lo + 1, kNexus6BwLevels - 1));
            double speedup = monotone ? 1.0 + 0.15 * cpu : rng.Uniform(0.3, 3.0);
            double power =
                monotone ? 800.0 + 90.0 * cpu : rng.Uniform(400.0, 4000.0);
            for (const int bw : {lo, hi}) {
                rows.push_back(
                    ProfileEntry{SystemConfig{cpu, bw},
                                 speedup * rng.Uniform(0.97, 1.03),
                                 Milliwatts(power * rng.Uniform(0.97, 1.03))});
                if (monotone) {
                    speedup *= rng.Uniform(1.0, 1.2);
                    power *= rng.Uniform(1.0, 1.3);
                }
            }
        }
        const ProfileTable measured("random", std::move(rows), 1.0);
        const ProfileTable interpolated = measured.InterpolateBandwidths(bw_table);
        EXPECT_LE(MaxRelativePowerGap(interpolated, measured), kRelativeTolerance)
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace aeo
