/**
 * @file
 * Oracle for the Monsoon monitor's noise stream (DESIGN.md §14 "Batched
 * power sampling"): however the monitor schedules its draws, each recorded
 * block takes the next value of Rng(seed).Gaussian(0, σ), in block order,
 * and a block the injector empties takes none.
 *
 * A seeded script runs the monitor through 300 catch-up blocks of 1–64
 * ticks, each at a power of its own, so the draws cross several refills of
 * the monitor's drawn-ahead batch. A reference made of that one Rng, plus a
 * twin injector with the injector's seed and rule, recomputes every block.
 * Each block's drained window average, the running average and the sample
 * and drop counts must match it bit for bit, once without an injector and
 * once with one that drops half of the ticks.
 */
#include "power/monsoon.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace aeo {
namespace {

constexpr uint64_t kNoiseSeed = 2017;
constexpr uint64_t kInjectorSeed = 31;
constexpr double kSigma = 0.004;
constexpr int kBlocks = 300;

void
ExpectReferenceNoiseStream(bool drop_ticks)
{
    Rng script(7);
    Simulator sim;
    double power_mw = 1000.0;
    MonsoonMonitor monitor(&sim, [&power_mw] { return Milliwatts(power_mw); },
                           kNoiseSeed,
                           MonsoonConfig{.sample_hz = 5000.0,
                                         .noise_rel_stddev = kSigma});
    FaultInjector injector(kInjectorSeed);
    FaultInjector twin(kInjectorSeed);
    if (drop_ticks) {
        FaultRule drops;
        drops.path_prefix = kMonsoonFaultPath;
        drops.fail_probability = 0.5;
        injector.AddRule(drops);
        twin.AddRule(drops);
        monitor.SetFaultInjector(&injector);
    }
    monitor.Start();

    Rng reference(kNoiseSeed);
    double sum_mw = 0.0;
    uint64_t kept_total = 0;
    uint64_t dropped_total = 0;
    int draws = 0;
    int empty_blocks = 0;
    for (int block = 0; block < kBlocks; ++block) {
        // RunFor's return records the previous block at the previous power.
        power_mw = script.Uniform(500.0, 3000.0);
        const int64_t ticks = script.Bernoulli(0.3) ? script.UniformInt(1, 2)
                                                    : script.UniformInt(1, 64);
        sim.RunFor(SimTime::Micros(200 * ticks));

        int64_t kept = ticks;
        if (drop_ticks) {
            kept = 0;
            for (int64_t i = 0; i < ticks; ++i) {
                if (twin.OnRead(kMonsoonFaultPath).ok()) {
                    ++kept;
                } else {
                    ++dropped_total;
                }
            }
        }
        const double window_mw = monitor.DrainWindowAveragePower().value();
        if (kept > 0) {
            const auto k = static_cast<double>(kept);
            const double measured_mw =
                power_mw * (k + std::sqrt(k) * reference.Gaussian(0.0, kSigma));
            ++draws;
            sum_mw += measured_mw;
            kept_total += static_cast<uint64_t>(kept);
            EXPECT_EQ(window_mw, measured_mw / k) << "block " << block;
        } else {
            ++empty_blocks;
            // An empty window reads the running average.
            EXPECT_EQ(window_mw, monitor.MeasuredAveragePower().value())
                << "block " << block;
        }
        ASSERT_EQ(monitor.sample_count(), kept_total) << "block " << block;
        ASSERT_EQ(monitor.dropped_sample_count(), dropped_total)
            << "block " << block;
        if (kept_total > 0) {
            EXPECT_EQ(monitor.MeasuredAveragePower().value(),
                      sum_mw / static_cast<double>(kept_total))
                << "block " << block;
        }
    }
    // The draws span several refills of the monitor's 64-value batch.
    EXPECT_GT(draws, 3 * 64);
    if (drop_ticks) {
        EXPECT_GT(empty_blocks, 0);
        EXPECT_GT(dropped_total, 0u);
    } else {
        EXPECT_EQ(empty_blocks, 0);
    }
}

TEST(MonsoonNoiseStreamTest, OneReferenceDrawPerRecordedBlock)
{
    ExpectReferenceNoiseStream(false);
}

TEST(MonsoonNoiseStreamTest, EmptiedBlocksTakeNoDraw)
{
    ExpectReferenceNoiseStream(true);
}

/** A monitor that records nothing draws nothing: its first block takes
 * the stream's first value even after a stop and a restart. */
TEST(MonsoonNoiseStreamTest, FirstRecordedBlockTakesTheFirstDraw)
{
    Simulator sim;
    MonsoonMonitor monitor(&sim, [] { return Milliwatts(1500.0); }, kNoiseSeed,
                           MonsoonConfig{.sample_hz = 5000.0,
                                         .noise_rel_stddev = kSigma});
    monitor.Start();
    monitor.Stop();
    sim.RunFor(SimTime::Millis(5));
    monitor.Start();
    sim.RunFor(SimTime::Micros(200 * 9));
    Rng reference(kNoiseSeed);
    const double measured_mw =
        1500.0 * (9.0 + std::sqrt(9.0) * reference.Gaussian(0.0, kSigma));
    EXPECT_EQ(monitor.sample_count(), 9u);
    EXPECT_EQ(monitor.MeasuredAveragePower().value(), measured_mw / 9.0);
}

}  // namespace
}  // namespace aeo
