/**
 * @file
 * Oracle test for batched power sampling (DESIGN.md §14 "Batched power
 * sampling"). One seeded random event script runs on two simulators: one
 * monitor on the sample clock, the other on the per-sample event path
 * (a rule-less FaultInjector attached, which passes every sample). Both must
 * record the same samples, bit for bit.
 *
 * The script aims at the places the two paths could part: events on sample
 * instants armed before and after the preceding tick, repeating timers on
 * 200 µs multiples, RunUntil deadlines on sample instants, Simulator::Stop()
 * from inside an event, monitor Stop/Start/Reset and window drains inside
 * events, power changes behind CatchUp() inside events and bare between
 * runs, and a decimated trace.
 */
#include "power/monsoon.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace aeo {
namespace {

constexpr int64_t kSampleUs = 200;

/** A simulator and monitor driven by the script drawn from one seed. */
class Rig {
  public:
    Rig(bool per_sample, uint64_t seed, const MonsoonConfig& config)
        : script_(seed),
          injector_(seed),
          monitor_(&sim_, [this] { return Milliwatts(power_mw_); }, seed + 1,
                   config)
    {
        if (per_sample) {
            monitor_.SetFaultInjector(&injector_);
        }
    }

    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    Simulator& sim() { return sim_; }
    MonsoonMonitor& monitor() { return monitor_; }
    const std::vector<double>& log() const { return log_; }

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
        switch (script_.UniformInt(0, 3)) {
            case 0:
                // No CatchUp(): RunUntil's return caught the monitor up.
                power_mw_ = script_.Uniform(500.0, 3000.0);
                break;
            case 1:
                sim_.ScheduleAfter(Delay(), [this] { Act(); });
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

    /** One scripted action inside an event. */
    void
    Act()
    {
        switch (script_.UniformInt(0, 12)) {
            case 0:
            case 1:
            case 2:
                // A power input changes: the owner catches up first.
                monitor_.CatchUp();
                power_mw_ = script_.Uniform(500.0, 3000.0);
                break;
            case 3:
                log_.push_back(monitor_.DrainWindowAveragePower().value());
                break;
            case 4:
                log_.push_back(static_cast<double>(monitor_.sample_count()));
                log_.push_back(
                    static_cast<double>(monitor_.ObservedDuration().micros()));
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
            default:
                break;
        }
    }

    Rng script_;
    Simulator sim_;
    double power_mw_ = 1000.0;
    /** Rule-less: every sample passes, only the path changes. */
    FaultInjector injector_;
    MonsoonMonitor monitor_;
    SimTime origin_;
    std::vector<EventId> timers_;
    std::vector<double> log_;
};

/** The decimated trace as comparable (time, power) pairs. */
std::vector<std::pair<int64_t, double>>
TraceOf(MonsoonMonitor& monitor)
{
    std::vector<std::pair<int64_t, double>> trace;
    for (const PowerSample& sample : monitor.trace()) {
        trace.emplace_back(sample.when.micros(), sample.power.value());
    }
    return trace;
}

/** Runs the script for @p seed on both paths and compares what they
 * recorded; returns the number of runs Stop() ended early. */
int
CompareOnScript(uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    MonsoonConfig config;
    config.trace_decimation = static_cast<int>(seed % 4);
    Rig batched(false, seed, config);
    Rig per_sample(true, seed, config);
    batched.Begin();
    per_sample.Begin();
    EXPECT_TRUE(batched.sim().sample_clock_running());
    EXPECT_FALSE(per_sample.sim().sample_clock_running());
    int stops = 0;
    for (int phase = 0; phase < 60; ++phase) {
        stops += batched.Phase() ? 1 : 0;
        per_sample.Phase();
    }
    // Ticks are not events: the batched run dispatches fewer.
    EXPECT_LT(batched.sim().executed_events(),
              per_sample.sim().executed_events());

    MonsoonMonitor& a = batched.monitor();
    MonsoonMonitor& b = per_sample.monitor();
    EXPECT_EQ(batched.log(), per_sample.log());
    EXPECT_EQ(a.sample_count(), b.sample_count());
    EXPECT_EQ(a.MeasuredAveragePower().value(),
              b.MeasuredAveragePower().value());
    EXPECT_EQ(a.DrainWindowAveragePower().value(),
              b.DrainWindowAveragePower().value());
    EXPECT_EQ(a.ObservedDuration(), b.ObservedDuration());
    EXPECT_EQ(TraceOf(a), TraceOf(b));
    return stops;
}

TEST(MonsoonBatchingPropertyTest, BatchedSamplesMatchPerSampleEvents)
{
    int stops = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        stops += CompareOnScript(seed);
    }
    // The script must actually exercise Stop() from inside an event.
    EXPECT_GT(stops, 0);
}

}  // namespace
}  // namespace aeo
