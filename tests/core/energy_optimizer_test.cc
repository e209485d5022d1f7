#include "core/energy_optimizer.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lp/schedule_lp.h"

namespace aeo {
namespace {

ProfileTable
SimpleTable()
{
    std::vector<ProfileEntry> entries = {
        {SystemConfig{0, 0}, 1.0, Milliwatts(100.0)},  {SystemConfig{1, 0}, 1.5, Milliwatts(160.0)},
        {SystemConfig{2, 0}, 2.0, Milliwatts(250.0)},  {SystemConfig{3, 0}, 2.5, Milliwatts(380.0)},
        {SystemConfig{4, 0}, 3.0, Milliwatts(600.0)},
    };
    return ProfileTable("test", std::move(entries), 0.2);
}

TEST(EnergyOptimizerTest, ExactSpeedupUsesSingleConfig)
{
    const ProfileTable table = SimpleTable();
    const EnergyOptimizer optimizer(&table);
    const ConfigSchedule schedule = optimizer.Optimize(2.0, 2.0);
    ASSERT_EQ(schedule.slots.size(), 1u);
    EXPECT_EQ(table.entries()[schedule.slots[0].entry_index].speedup, 2.0);
    EXPECT_NEAR(schedule.slots[0].seconds, 2.0, 1e-12);
    EXPECT_NEAR(schedule.expected_speedup, 2.0, 1e-12);
}

TEST(EnergyOptimizerTest, IntermediateSpeedupBlendsNeighbors)
{
    const ProfileTable table = SimpleTable();
    const EnergyOptimizer optimizer(&table);
    const ConfigSchedule schedule = optimizer.Optimize(1.75, 2.0);
    ASSERT_EQ(schedule.slots.size(), 2u);
    const double s_low = table.entries()[schedule.slots[0].entry_index].speedup;
    const double s_high = table.entries()[schedule.slots[1].entry_index].speedup;
    EXPECT_LE(s_low, 1.75);
    EXPECT_GE(s_high, 1.75);
    EXPECT_NEAR(schedule.slots[0].seconds + schedule.slots[1].seconds, 2.0, 1e-12);
    EXPECT_NEAR(schedule.expected_speedup, 1.75, 1e-9);
}

TEST(EnergyOptimizerTest, SpeedupBelowRangeClampsToCheapestConfig)
{
    const ProfileTable table = SimpleTable();
    const EnergyOptimizer optimizer(&table);
    const ConfigSchedule schedule = optimizer.Optimize(0.2, 2.0);
    ASSERT_EQ(schedule.slots.size(), 1u);
    EXPECT_NEAR(schedule.expected_power_mw.value(), 100.0, 1e-9);
}

TEST(EnergyOptimizerTest, SpeedupAboveRangeClampsToFastestConfig)
{
    const ProfileTable table = SimpleTable();
    const EnergyOptimizer optimizer(&table);
    const ConfigSchedule schedule = optimizer.Optimize(99.0, 2.0);
    ASSERT_EQ(schedule.slots.size(), 1u);
    EXPECT_NEAR(schedule.expected_power_mw.value(), 600.0, 1e-9);
    EXPECT_NEAR(schedule.expected_speedup, 3.0, 1e-12);
}

TEST(EnergyOptimizerTest, SkipsNonHullConfigurations)
{
    // Entry at speedup 1.5 is overpriced: blending 1.0 and 2.0 is cheaper.
    std::vector<ProfileEntry> entries = {
        {SystemConfig{0, 0}, 1.0, Milliwatts(100.0)},
        {SystemConfig{1, 0}, 1.5, Milliwatts(400.0)},  // above the segment (100+250)/2=175
        {SystemConfig{2, 0}, 2.0, Milliwatts(250.0)},
    };
    const ProfileTable table("test", std::move(entries), 0.2);
    const EnergyOptimizer optimizer(&table);
    const ConfigSchedule schedule = optimizer.Optimize(1.5, 2.0);
    ASSERT_EQ(schedule.slots.size(), 2u);
    EXPECT_NEAR(schedule.expected_power_mw.value(), 175.0, 1e-9);
}

TEST(EnergyOptimizerTest, DescendingHullStillMeetsEqualityConstraint)
{
    // The slowest config is also the most power hungry (possible in
    // CPU-only tables where the default bandwidth governor misbehaves).
    // The paper's LP holds performance *at* the target (equality (5)), so
    // the required speedup is met exactly even though exceeding it would
    // be cheaper.
    std::vector<ProfileEntry> entries = {
        {SystemConfig{0, 0}, 1.0, Milliwatts(500.0)},
        {SystemConfig{1, 0}, 1.5, Milliwatts(200.0)},
        {SystemConfig{2, 0}, 2.0, Milliwatts(300.0)},
    };
    const ProfileTable table("test", std::move(entries), 0.2);
    const EnergyOptimizer optimizer(&table);
    const ConfigSchedule exact = optimizer.Optimize(1.0, 2.0);
    ASSERT_EQ(exact.slots.size(), 1u);
    EXPECT_NEAR(exact.expected_power_mw.value(), 500.0, 1e-9);
    EXPECT_NEAR(exact.expected_speedup, 1.0, 1e-12);
    // A blend on the descending segment meets 1.25 exactly with a mix.
    const ConfigSchedule blend = optimizer.Optimize(1.25, 2.0);
    ASSERT_EQ(blend.slots.size(), 2u);
    EXPECT_NEAR(blend.expected_speedup, 1.25, 1e-9);
    EXPECT_NEAR(blend.expected_power_mw.value(), 350.0, 1e-9);
}

/** Time-averaged speedup of a reference solver's dwells over @p cycle_seconds. */
double
AverageSpeedup(const std::vector<double>& speedups, const LpSolution& solution,
               double cycle_seconds)
{
    double speedup_time = 0.0;
    for (size_t i = 0; i < solution.x.size(); ++i) {
        speedup_time += speedups[i] * solution.x[i];
    }
    return speedup_time / cycle_seconds;
}

/** Non-zero dwells of a reference solution (the simplex leaves ~1e-9 s of
 * noise on idle columns). */
size_t
Dwells(const LpSolution& solution)
{
    return static_cast<size_t>(std::count_if(solution.x.begin(), solution.x.end(),
                                             [](double t) { return t > 1e-9; }));
}

/** Property test: the hull walk agrees with both reference solvers in
 * src/lp (the paper's pair search and the simplex) on the optimal power
 * across random tables and required speedups. */
TEST(EnergyOptimizerTest, BackendsAgreeOnRandomTables)
{
    Rng rng(2017);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = static_cast<int>(rng.UniformInt(2, 25));
        std::vector<ProfileEntry> entries;
        double speedup = 1.0;
        for (int i = 0; i < n; ++i) {
            ProfileEntry entry;
            entry.config = SystemConfig{i, 0};
            entry.speedup = speedup;
            entry.power_mw = Milliwatts(rng.Uniform(100.0, 3000.0));
            entries.push_back(entry);
            speedup += rng.Uniform(0.01, 0.5);
        }
        const ProfileTable table("random", std::move(entries), 0.3);
        const EnergyOptimizer hull(&table);
        std::vector<double> speedups;
        std::vector<double> powers;
        for (const ProfileEntry& entry : table.entries()) {
            speedups.push_back(entry.speedup);
            powers.push_back(entry.power_mw.value());
        }

        for (int k = 0; k < 10; ++k) {
            const double s =
                rng.Uniform(table.min_speedup() * 0.9, table.max_speedup() * 1.1);
            // The optimizer clamps the target; the reference solvers get
            // the clamped one.
            const double clamped =
                std::min(std::max(s, table.min_speedup()), table.max_speedup());
            const ConfigSchedule a = hull.Optimize(s, 2.0);
            const LpSolution b = SolveSchedulePairs(speedups, powers, clamped, 2.0);
            const LpSolution c = SolveScheduleLp(speedups, powers, clamped, 2.0);
            ASSERT_TRUE(b.feasible);
            ASSERT_TRUE(c.feasible);
            EXPECT_NEAR(a.expected_power_mw.value(), b.objective_value / 2.0, 1e-6)
                << "trial " << trial << " speedup " << s;
            EXPECT_NEAR(a.expected_power_mw.value(), c.objective_value / 2.0, 1e-5)
                << "trial " << trial << " speedup " << s;
            // All three meet the (clamped) performance constraint.
            EXPECT_NEAR(a.expected_speedup, clamped, 1e-6);
            EXPECT_NEAR(AverageSpeedup(speedups, b, 2.0), clamped, 1e-6);
            EXPECT_NEAR(AverageSpeedup(speedups, c, 2.0), clamped, 1e-6);
            // Paper property: at most two non-zero dwells.
            EXPECT_LE(a.slots.size(), 2u);
            EXPECT_LE(Dwells(b), 2u);
            EXPECT_LE(Dwells(c), 2u);
        }
    }
}

TEST(EnergyOptimizerTest, HullIndicesAreConvexAndIncreasing)
{
    const ProfileTable table = SimpleTable();
    const EnergyOptimizer optimizer(&table);
    const auto& hull = optimizer.hull_indices();
    ASSERT_GE(hull.size(), 2u);
    for (size_t i = 1; i < hull.size(); ++i) {
        EXPECT_LT(table.entries()[hull[i - 1]].speedup,
                  table.entries()[hull[i]].speedup);
        EXPECT_LT(table.entries()[hull[i - 1]].power_mw.value(),
                  table.entries()[hull[i]].power_mw.value());
    }
}

}  // namespace
}  // namespace aeo
