/**
 * @file
 * Oracle test for batched power sampling (DESIGN.md §14 "Batched power
 * sampling"). One seeded random event script runs on two simulators: one
 * MonsoonMonitor on the sample clock, and a test-local reference that takes
 * every sample as an event of its own — a ScheduleEvery series whose
 * callback consults the injector, then draws the noise. Each rig owns a
 * FaultInjector with the same seed. Both must record the same samples and
 * leave the same fault trace, bit for bit.
 *
 * The script aims at the places the two could part: events on sample
 * instants armed before and after the preceding tick, repeating timers on
 * 200 µs multiples, RunUntil deadlines on sample instants, Simulator::Stop()
 * from inside an event, monitor Stop/Start/Reset and window drains inside
 * events, power changes behind CatchUp() inside events and bare between
 * runs, other-path injector reads and writes inside events, and meter-drop
 * rules (transient, sticky, and a shared-prefix rule with a trigger budget)
 * added, removed and repaired inside events and between runs.
 */
#include "power/monsoon.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
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
 * injector and then drawing its noise, with the accessors the script uses.
 */
class PerSampleMonitor {
  public:
    PerSampleMonitor(Simulator* sim, std::function<Milliwatts()> power_source,
                     uint64_t rng_seed, MonsoonConfig config)
        : sim_(sim),
          power_source_(std::move(power_source)),
          rng_(rng_seed),
          config_(config),
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
        window_count_ = 0;
        return avg;
    }

    SimTime ObservedDuration() const { return last_sample_time_ - start_time_; }

    void
    Reset()
    {
        power_sum_mw_ = 0.0;
        sample_count_ = 0;
        window_sum_mw_ = 0.0;
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
        const double measured_mw =
            true_mw * (1.0 + rng_.Gaussian(0.0, config_.noise_rel_stddev));
        power_sum_mw_ += measured_mw;
        ++sample_count_;
        window_sum_mw_ += measured_mw;
        ++window_count_;
        last_sample_time_ = sim_->Now();
    }

    Simulator* sim_;
    std::function<Milliwatts()> power_source_;
    Rng rng_;
    MonsoonConfig config_;
    SimTime period_;
    EventId series_ = kInvalidEventId;
    FaultInjector* injector_ = nullptr;
    const std::string meter_path_ = kMonsoonFaultPath;
    SimTime start_time_;
    SimTime last_sample_time_;
    double power_sum_mw_ = 0.0;
    uint64_t sample_count_ = 0;
    double window_sum_mw_ = 0.0;
    uint64_t window_count_ = 0;
    uint64_t dropped_sample_count_ = 0;
};

/** A simulator, injector and monitor driven by the script drawn from one
 * seed. */
template <typename Monitor>
class Rig {
  public:
    explicit Rig(uint64_t seed)
        : script_(seed),
          injector_(seed),
          monitor_(&sim_, [this] { return Milliwatts(power_mw_); }, seed + 1,
                   MonsoonConfig{})
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
                log_.push_back(monitor_.DrainWindowAveragePower().value());
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
    std::vector<double> log_;
};

/** Runs the script for @p seed on both monitors and compares what they
 * recorded; returns the number of runs Stop() ended early. */
int
CompareOnScript(uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rig<MonsoonMonitor> batched(seed);
    Rig<PerSampleMonitor> per_sample(seed);
    batched.Begin();
    per_sample.Begin();
    EXPECT_TRUE(batched.sim().sample_clock_running());
    EXPECT_FALSE(per_sample.sim().sample_clock_running());
    int stops = 0;
    for (int phase = 0; phase < 120; ++phase) {
        stops += batched.Phase() ? 1 : 0;
        per_sample.Phase();
    }
    // Ticks are not events: the batched run dispatches fewer.
    EXPECT_LT(batched.sim().executed_events(),
              per_sample.sim().executed_events());

    MonsoonMonitor& a = batched.monitor();
    PerSampleMonitor& b = per_sample.monitor();
    EXPECT_EQ(batched.log(), per_sample.log());
    EXPECT_EQ(a.sample_count(), b.sample_count());
    EXPECT_EQ(a.dropped_sample_count(), b.dropped_sample_count());
    EXPECT_EQ(a.MeasuredAveragePower().value(),
              b.MeasuredAveragePower().value());
    EXPECT_EQ(a.DrainWindowAveragePower().value(),
              b.DrainWindowAveragePower().value());
    EXPECT_EQ(a.ObservedDuration(), b.ObservedDuration());
    EXPECT_EQ(batched.injector().op_count(), per_sample.injector().op_count());
    EXPECT_EQ(batched.injector().trace(), per_sample.injector().trace());
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
