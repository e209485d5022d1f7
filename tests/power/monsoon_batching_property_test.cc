/**
 * @file
 * Oracle test for batched power sampling (DESIGN.md §14 "Batched power
 * sampling"). One seeded random event script runs on two simulators: one
 * MonsoonMonitor on the sample clock, and a test-local, noise-free reference
 * that takes every sample as an event of its own — a ScheduleEvery series
 * whose callback consults the injector, then adds the true power. Each rig
 * owns a FaultInjector with the same seed.
 *
 * Everything but the noise must agree bit for bit: sample, drop and window
 * counts, durations, the injector's decisions, op_count() and its full
 * trace. The monitor makes one noise draw per catch-up block, so its sums
 * are checked in law: at σ = 0 they equal the reference's to rounding, and
 * at σ > 0 each drained window's error, scaled by σ·sqrt(Σ P²) over its kept
 * ticks, must look like N(0, 1) across the windows of all seeds, the
 * script's and those of a quiet rig whose blocks run to hundreds of ticks.
 *
 * The script aims at the places the two could part: events on sample
 * instants armed before and after the preceding tick, repeating timers on
 * 200 µs multiples, RunUntil deadlines on sample instants, Simulator::Stop()
 * from inside an event, monitor Stop/Start/Reset and window drains inside
 * events, power changes behind CatchUp() inside events and bare between
 * runs, other-path injector reads and writes inside events, and meter-drop
 * rules (transient, sticky, and a shared-prefix rule with a trigger budget)
 * added, removed and repaired inside events and between runs. Across the
 * seeds, the injector must decide some of the monitor's meter blocks in
 * O(1) and some read by read, so both paths meet the reference.
 */
#include "power/monsoon.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace aeo {
namespace {

constexpr int64_t kSampleUs = 200;

/** An injector path outside the meter, standing in for sysfs and PMU. */
const char kOtherPath[] = "/sys/devices/flaky/node";

/**
 * The per-sample reference: one event per sample, each consulting the
 * injector and then adding the true power, with the accessors the script
 * uses. It draws no noise; it also sums the squared power, which scales
 * the monitor's noise over the same ticks.
 */
class PerSampleMonitor {
  public:
    PerSampleMonitor(Simulator* sim, std::function<Milliwatts()> power_source,
                     uint64_t /*rng_seed*/, MonsoonConfig config)
        : sim_(sim),
          power_source_(std::move(power_source)),
          period_(SimTime::FromSecondsF(1.0 / config.sample_hz))
    {
    }

    void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

    void
    Start()
    {
        Stop();
        start_time_ = sim_->Now();
        last_sample_time_ = start_time_;
        series_ = sim_->ScheduleEvery(period_, [this] { TakeSample(); });
    }

    void
    Stop()
    {
        if (series_ != kInvalidEventId) {
            sim_->Cancel(series_);
            series_ = kInvalidEventId;
        }
    }

    /** Every sample is already recorded. */
    void CatchUp() {}

    uint64_t sample_count() const { return sample_count_; }
    uint64_t dropped_sample_count() const { return dropped_sample_count_; }
    uint64_t window_sample_count() const { return window_count_; }
    double square_sum() const { return square_sum_; }
    double window_square_sum() const { return window_square_sum_; }

    Milliwatts
    MeasuredAveragePower() const
    {
        if (sample_count_ == 0) {
            return Milliwatts(0.0);
        }
        return Milliwatts(power_sum_mw_ / static_cast<double>(sample_count_));
    }

    Milliwatts
    DrainWindowAveragePower()
    {
        if (window_count_ == 0) {
            return MeasuredAveragePower();
        }
        const Milliwatts avg(window_sum_mw_ / static_cast<double>(window_count_));
        window_sum_mw_ = 0.0;
        window_square_sum_ = 0.0;
        window_count_ = 0;
        return avg;
    }

    SimTime ObservedDuration() const { return last_sample_time_ - start_time_; }

    void
    Reset()
    {
        power_sum_mw_ = 0.0;
        square_sum_ = 0.0;
        sample_count_ = 0;
        window_sum_mw_ = 0.0;
        window_square_sum_ = 0.0;
        window_count_ = 0;
        start_time_ = sim_->Now();
        last_sample_time_ = start_time_;
    }

  private:
    void
    TakeSample()
    {
        if (injector_ != nullptr && !injector_->OnRead(meter_path_).ok()) {
            ++dropped_sample_count_;
            return;
        }
        const double true_mw = power_source_().value();
        power_sum_mw_ += true_mw;
        square_sum_ += true_mw * true_mw;
        ++sample_count_;
        window_sum_mw_ += true_mw;
        window_square_sum_ += true_mw * true_mw;
        ++window_count_;
        last_sample_time_ = sim_->Now();
    }

    Simulator* sim_;
    std::function<Milliwatts()> power_source_;
    SimTime period_;
    EventId series_ = kInvalidEventId;
    FaultInjector* injector_ = nullptr;
    const std::string meter_path_ = kMonsoonFaultPath;
    SimTime start_time_;
    SimTime last_sample_time_;
    double power_sum_mw_ = 0.0;
    double square_sum_ = 0.0;
    uint64_t sample_count_ = 0;
    double window_sum_mw_ = 0.0;
    double window_square_sum_ = 0.0;
    uint64_t window_count_ = 0;
    uint64_t dropped_sample_count_ = 0;
};

/** A power sum the script read: over a drained window, or over every tick
 * since the last Reset when the window was empty or at the end. */
struct PowerReading {
    /** Whether the ticks are a drained window's (disjoint from the other
     * drained windows of the run). */
    bool window = false;
    double sum_mw = 0.0;
    /** Σ P² over the same ticks; only the reference knows it. */
    double square_sum = 0.0;
};

/** A simulator, injector and monitor driven by the script drawn from one
 * seed. */
template <typename Monitor>
class Rig {
  public:
    Rig(uint64_t seed, MonsoonConfig config)
        : script_(seed),
          injector_(seed),
          monitor_(&sim_, [this] { return Milliwatts(power_mw_); }, seed + 1,
                   config)
    {
        monitor_.SetFaultInjector(&injector_);
        FaultRule other;
        other.path_prefix = kOtherPath;
        other.fail_probability = 0.2;
        other.stale_probability = 0.2;
        other.latency_spike_probability = 0.1;
        injector_.AddRule(other);
    }

    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    Simulator& sim() { return sim_; }
    FaultInjector& injector() { return injector_; }
    Monitor& monitor() { return monitor_; }
    const std::vector<double>& log() const { return log_; }
    const std::vector<PowerReading>& readings() const { return readings_; }

    /** Drains the monitor's window, recording its power sum. */
    void
    ReadWindow()
    {
        PowerReading reading;
        uint64_t ticks = monitor_.window_sample_count();
        // An empty window drains the running average instead.
        reading.window = ticks > 0;
        if (!reading.window) {
            ticks = monitor_.sample_count();
        }
        if constexpr (std::is_same_v<Monitor, PerSampleMonitor>) {
            reading.square_sum = reading.window ? monitor_.window_square_sum()
                                                : monitor_.square_sum();
        }
        reading.sum_mw = monitor_.DrainWindowAveragePower().value() *
                         static_cast<double>(ticks);
        log_.push_back(static_cast<double>(ticks));
        readings_.push_back(reading);
    }

    /** Records the running power sum over every tick since the last Reset. */
    void
    ReadTotal()
    {
        PowerReading reading;
        const uint64_t ticks = monitor_.sample_count();
        if constexpr (std::is_same_v<Monitor, PerSampleMonitor>) {
            reading.square_sum = monitor_.square_sum();
        }
        reading.sum_mw =
            monitor_.MeasuredAveragePower().value() * static_cast<double>(ticks);
        log_.push_back(static_cast<double>(ticks));
        readings_.push_back(reading);
    }

    /** Starts the monitor and a few self-rescheduling event chains. */
    void
    Begin()
    {
        StartMonitor();
        for (int chain = 0; chain < 3; ++chain) {
            sim_.ScheduleAfter(Delay(), [this] { OnChainEvent(); });
        }
    }

    /** One run: an action between runs, then RunUntil a scripted deadline
     * (on a sample instant or off it). Returns whether Stop() ended it. */
    bool
    Phase()
    {
        switch (script_.UniformInt(0, 4)) {
            case 0:
                // No CatchUp(): RunUntil's return caught the monitor up.
                power_mw_ = script_.Uniform(500.0, 3000.0);
                break;
            case 1:
                sim_.ScheduleAfter(Delay(), [this] { Act(); });
                break;
            case 2:
                ChangeFaults();
                break;
            default:
                break;
        }
        const SimTime deadline =
            script_.Bernoulli(0.6)
                ? NextSampleInstant() +
                      SimTime::Micros(kSampleUs * script_.UniformInt(0, 12))
                : sim_.Now() + SimTime::Micros(script_.UniformInt(0, 2500));
        sim_.RunUntil(deadline);
        log_.push_back(static_cast<double>(sim_.Now().micros()));
        return sim_.stopped();
    }

  private:
    void
    StartMonitor()
    {
        monitor_.Start();
        origin_ = sim_.Now();
    }

    /** The first sample instant of the current monitor start after now. */
    SimTime
    NextSampleInstant() const
    {
        const int64_t since = (sim_.Now() - origin_).micros();
        return origin_ + SimTime::Micros((since / kSampleUs + 1) * kSampleUs);
    }

    /** A delay that lands on a sample instant, on now, or anywhere. */
    SimTime
    Delay()
    {
        switch (script_.UniformInt(0, 3)) {
            case 0:
                return SimTime::Zero();
            case 1:
            case 2:
                return NextSampleInstant() - sim_.Now() +
                       SimTime::Micros(kSampleUs * script_.UniformInt(0, 3));
            default:
                return SimTime::Micros(script_.UniformInt(1, 700));
        }
    }

    void
    OnChainEvent()
    {
        Act();
        sim_.ScheduleAfter(Delay(), [this] { OnChainEvent(); });
    }

    /** Adds a meter-drop rule, removes one, or repairs latched state. */
    void
    ChangeFaults()
    {
        switch (script_.UniformInt(0, 5)) {
            case 0: {
                FaultRule transient;
                transient.path_prefix = kMonsoonFaultPath;
                transient.fail_probability = script_.Uniform(0.05, 0.5);
                transient.disappear_probability = 0.01;
                rules_.push_back(injector_.AddRule(transient));
                break;
            }
            case 1: {
                FaultRule sticky;
                sticky.path_prefix = kMonsoonFaultPath;
                sticky.fail_probability = 0.05;
                sticky.errc = FaultErrc::kIo;
                sticky.duration = FaultDuration::kSticky;
                rules_.push_back(injector_.AddRule(sticky));
                break;
            }
            case 2: {
                // Covers the meter and the other path, and shadows later
                // rules on both until its budget is spent.
                FaultRule shared;
                shared.path_prefix = "/";
                shared.fail_probability = 0.3;
                shared.max_triggers = static_cast<int>(script_.UniformInt(1, 5));
                rules_.push_back(injector_.AddRule(shared));
                break;
            }
            case 3:
                if (!rules_.empty()) {
                    const auto pick = static_cast<size_t>(script_.UniformInt(
                        0, static_cast<int64_t>(rules_.size()) - 1));
                    injector_.RemoveRule(rules_[pick]);
                    rules_.erase(rules_.begin() +
                                 static_cast<std::ptrdiff_t>(pick));
                }
                break;
            case 4:
                injector_.RepairAll();
                break;
            default:
                injector_.RepairPrefix("/dev/monsoon");
                break;
        }
    }

    /** One scripted action inside an event. */
    void
    Act()
    {
        switch (script_.UniformInt(0, 15)) {
            case 0:
            case 1:
            case 2:
                // A power input changes: the owner catches up first.
                monitor_.CatchUp();
                power_mw_ = script_.Uniform(500.0, 3000.0);
                break;
            case 3:
                ReadWindow();
                break;
            case 4:
                log_.push_back(static_cast<double>(monitor_.sample_count()));
                log_.push_back(
                    static_cast<double>(monitor_.ObservedDuration().micros()));
                log_.push_back(
                    static_cast<double>(monitor_.dropped_sample_count()));
                break;
            case 5:
                if (timers_.size() < 4) {
                    // On a 200 µs multiple, so it shares instants with ticks.
                    timers_.push_back(sim_.ScheduleEvery(
                        SimTime::Micros(kSampleUs * script_.UniformInt(1, 4)),
                        [this] { Act(); }));
                }
                break;
            case 6:
                if (!timers_.empty()) {
                    const auto pick = static_cast<size_t>(script_.UniformInt(
                        0, static_cast<int64_t>(timers_.size()) - 1));
                    sim_.Cancel(timers_[pick]);
                    timers_.erase(timers_.begin() +
                                  static_cast<std::ptrdiff_t>(pick));
                }
                break;
            case 7:
                sim_.ScheduleAfter(Delay(), [this] { Act(); });
                break;
            case 8:
                monitor_.Stop();
                break;
            case 9:
                StartMonitor();
                break;
            case 10:
                monitor_.Reset();
                break;
            case 11:
                sim_.Stop();
                break;
            case 12:
            case 13: {
                // A sysfs or PMU operation between meter samples.
                const FaultDecision decision = script_.Bernoulli(0.5)
                                                   ? injector_.OnRead(other_path_)
                                                   : injector_.OnWrite(other_path_);
                log_.push_back(static_cast<double>(decision.errc));
                break;
            }
            default:
                ChangeFaults();
                break;
        }
    }

    Rng script_;
    Simulator sim_;
    double power_mw_ = 1000.0;
    FaultInjector injector_;
    Monitor monitor_;
    const std::string other_path_ = kOtherPath;
    SimTime origin_;
    std::vector<EventId> timers_;
    std::vector<int> rules_;
    /** Exact readings: times, counts and fault decisions. */
    std::vector<double> log_;
    std::vector<PowerReading> readings_;
};

/** What the scripts exercised, summed over seeds. */
struct ScriptCoverage {
    /** Runs that Stop() ended early. */
    int stops = 0;
    /** The batched monitor's meter blocks, by how the injector decided
     * them: in O(1) or read by read. */
    uint64_t clean_blocks = 0;
    uint64_t read_by_read_blocks = 0;
};

/**
 * Runs the script for @p seed on the batched monitor at @p noise and on the
 * reference, and checks everything but the noise bit for bit. Returns the
 * readings of both, in script order, and adds to @p coverage.
 */
std::pair<std::vector<PowerReading>, std::vector<PowerReading>>
CompareOnScript(uint64_t seed, double noise, ScriptCoverage* coverage)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const MonsoonConfig config{.sample_hz = 5000.0, .noise_rel_stddev = noise};
    Rig<MonsoonMonitor> batched(seed, config);
    Rig<PerSampleMonitor> per_sample(seed, config);
    batched.Begin();
    per_sample.Begin();
    EXPECT_TRUE(batched.sim().sample_clock_running());
    EXPECT_FALSE(per_sample.sim().sample_clock_running());
    for (int phase = 0; phase < 120; ++phase) {
        coverage->stops += batched.Phase() ? 1 : 0;
        per_sample.Phase();
    }
    // Ticks are not events: the batched run dispatches fewer.
    EXPECT_LT(batched.sim().executed_events(),
              per_sample.sim().executed_events());
    batched.ReadTotal();
    per_sample.ReadTotal();
    batched.ReadWindow();
    per_sample.ReadWindow();

    MonsoonMonitor& a = batched.monitor();
    PerSampleMonitor& b = per_sample.monitor();
    EXPECT_EQ(batched.log(), per_sample.log());
    EXPECT_EQ(a.sample_count(), b.sample_count());
    EXPECT_EQ(a.dropped_sample_count(), b.dropped_sample_count());
    EXPECT_EQ(a.ObservedDuration(), b.ObservedDuration());
    EXPECT_EQ(batched.injector().op_count(), per_sample.injector().op_count());
    EXPECT_EQ(batched.injector().trace(), per_sample.injector().trace());
    EXPECT_EQ(batched.readings().size(), per_sample.readings().size());
    const FaultInjector::BlockCounts& blocks = batched.injector().block_counts();
    coverage->clean_blocks += blocks.clean;
    coverage->read_by_read_blocks += blocks.read_by_read;
    return {batched.readings(), per_sample.readings()};
}

TEST(MonsoonBatchingPropertyTest, BatchedSamplesMatchPerSampleEvents)
{
    // Without noise the block sums are the per-sample sums up to rounding.
    ScriptCoverage coverage;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        const auto [batched, reference] = CompareOnScript(seed, 0.0, &coverage);
        for (size_t i = 0; i < batched.size() && i < reference.size(); ++i) {
            EXPECT_EQ(batched[i].window, reference[i].window);
            EXPECT_NEAR(batched[i].sum_mw, reference[i].sum_mw,
                        1e-12 * reference[i].sum_mw)
                << "seed " << seed << ", reading " << i;
        }
    }
    // The script must actually exercise Stop() from inside an event, and
    // meter blocks decided both in O(1) and read by read.
    EXPECT_GT(coverage.stops, 0);
    EXPECT_GT(coverage.clean_blocks, 0u);
    EXPECT_GT(coverage.read_by_read_blocks, 0u);
}

/**
 * Appends one z per window of long catch-up blocks: a monitor read every
 * 0.2–50 ms in one to three runs per window, at a new power per run, with a
 * meter-drop rule on odd seeds. The script's blocks are mostly a tick or
 * two long, so it alone could not tell sqrt(k) from 1 or k.
 */
void
AppendLongBlockZ(uint64_t seed, double noise, std::vector<double>* z)
{
    Rng script(seed);
    Simulator sim;
    FaultInjector injector(seed);
    double power_mw = 1000.0;
    MonsoonMonitor monitor(&sim, [&power_mw] { return Milliwatts(power_mw); },
                           seed + 1,
                           MonsoonConfig{.sample_hz = 5000.0,
                                         .noise_rel_stddev = noise});
    if (seed % 2 == 1) {
        FaultRule drops;
        drops.path_prefix = kMonsoonFaultPath;
        drops.fail_probability = 0.1;
        injector.AddRule(drops);
        monitor.SetFaultInjector(&injector);
    }
    monitor.Start();
    for (int window = 0; window < 20; ++window) {
        double exact_mw = 0.0;
        double square_sum = 0.0;
        const int64_t runs = script.UniformInt(1, 3);
        for (int64_t run = 0; run < runs; ++run) {
            // RunFor's return caught the monitor up at the old power.
            power_mw = script.Uniform(500.0, 3000.0);
            const uint64_t before = monitor.window_sample_count();
            sim.RunFor(SimTime::Micros(script.UniformInt(200, 50000)));
            const auto kept =
                static_cast<double>(monitor.window_sample_count() - before);
            exact_mw += power_mw * kept;
            square_sum += power_mw * power_mw * kept;
        }
        const auto ticks = static_cast<double>(monitor.window_sample_count());
        const double measured_mw = monitor.DrainWindowAveragePower().value() * ticks;
        if (ticks > 0) {
            z->push_back((measured_mw - exact_mw) / (noise * std::sqrt(square_sum)));
        }
    }
}

TEST(MonsoonBatchingPropertyTest, BlockNoiseHasThePerSampleLaw)
{
    // k per-sample draws of P·σ·N(0, 1) sum to N(0, σ²·Σ P²) in law, so each
    // drained window's z below is an independent N(0, 1) deviate: windows
    // hold disjoint ticks, and every rig draws its own noise stream.
    constexpr double kNoise = 0.004;
    std::vector<double> z;
    ScriptCoverage coverage;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        const auto [batched, reference] = CompareOnScript(seed, kNoise, &coverage);
        for (size_t i = 0; i < batched.size() && i < reference.size(); ++i) {
            if (reference[i].window) {
                z.push_back((batched[i].sum_mw - reference[i].sum_mw) /
                            (kNoise * std::sqrt(reference[i].square_sum)));
            }
        }
        AppendLongBlockZ(seed, kNoise, &z);
    }
    const auto n = static_cast<double>(z.size());
    double mean = 0.0;
    for (const double v : z) {
        mean += v / n;
    }
    double variance = 0.0;
    for (const double v : z) {
        variance += (v - mean) * (v - mean) / (n - 1.0);
    }
    ASSERT_GT(z.size(), 4000u);
    // |mean| < 5/sqrt(n): a N(0, 1) sample fails with probability 6e-7.
    EXPECT_LT(std::abs(mean), 5.0 / std::sqrt(n)) << "n = " << n;
    // (n - 1)·variance is chi-squared with n - 1 degrees of freedom; at this
    // test's n = 5183, 1 ± 6·sqrt(2/n) fails with probability 4e-9 above and
    // 2e-10 below.
    EXPECT_LT(std::abs(variance - 1.0), 6.0 * std::sqrt(2.0 / n))
        << "n = " << n << ", variance " << variance;
}

}  // namespace
}  // namespace aeo
