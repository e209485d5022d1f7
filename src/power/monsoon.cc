#include "power/monsoon.h"

#include <utility>

#include "common/logging.h"

namespace aeo {

MonsoonMonitor::MonsoonMonitor(Simulator* sim,
                               std::function<Milliwatts()> power_source,
                               uint64_t rng_seed, MonsoonConfig config)
    : sim_(sim),
      power_source_(std::move(power_source)),
      rng_(rng_seed),
      config_(config),
      period_(SimTime::FromSecondsF(1.0 / config.sample_hz))
{
    AEO_ASSERT(sim_ != nullptr, "monitor needs a simulator");
    AEO_ASSERT(power_source_ != nullptr, "monitor needs a power source");
    AEO_ASSERT(config_.sample_hz > 0.0, "sample rate must be positive");
    AEO_ASSERT(config_.noise_rel_stddev >= 0.0, "negative noise level");
}

MonsoonMonitor::~MonsoonMonitor()
{
    // No catch-up: the power source may already be gone.
    Detach();
}

void
MonsoonMonitor::Start()
{
    Stop();
    start_time_ = sim_->Now();
    last_sample_time_ = start_time_;
    // An injector counts every operation it is consulted on, samples
    // included, so it must see each sample in order with the others.
    if (injector_ == nullptr) {
        sim_->StartSampleClock(period_, [this] { CatchUp(); });
        on_clock_ = true;
        ticks_seen_ = 0;
        next_tick_ = start_time_ + period_;
    } else {
        series_ = sim_->ScheduleEvery(period_, [this] { TakeSample(); });
    }
}

void
MonsoonMonitor::Stop()
{
    CatchUp();
    Detach();
}

void
MonsoonMonitor::Detach()
{
    if (on_clock_) {
        sim_->StopSampleClock();
        on_clock_ = false;
    }
    if (series_ != kInvalidEventId) {
        sim_->Cancel(series_);
        series_ = kInvalidEventId;
    }
}

// aeo: hot-path
void
MonsoonMonitor::CatchUp()
{
    if (!on_clock_ || sim_->sample_ticks() == ticks_seen_) {
        return;
    }
    const uint64_t pending = sim_->sample_ticks() - ticks_seen_;
    ticks_seen_ = sim_->sample_ticks();
    // One read serves every pending tick: the source has not changed since
    // the previous catch-up. The draws, products and sums are TakeSample's,
    // in its order, so the totals are bit-identical to the per-sample path.
    const double true_mw = power_source_().value();
    const double stddev = config_.noise_rel_stddev;
    const int decimation = config_.trace_decimation;
    double power_sum = power_sum_mw_;
    double window_sum = window_sum_mw_;
    uint64_t count = sample_count_;
    SimTime when = next_tick_;
    for (uint64_t i = 0; i < pending; ++i) {
        const double measured_mw = true_mw * (1.0 + rng_.Gaussian(0.0, stddev));
        power_sum += measured_mw;
        window_sum += measured_mw;
        ++count;
        if (decimation > 0 && count % static_cast<uint64_t>(decimation) == 0) {
            // aeo-lint: allow(hot-path-alloc) -- the decimated power trace
            // is the meter's output artifact; growth here IS the product.
            trace_.push_back(PowerSample{when, Milliwatts(measured_mw)});
        }
        when += period_;
    }
    power_sum_mw_ = power_sum;
    window_sum_mw_ = window_sum;
    sample_count_ = count;
    window_count_ += pending;
    next_tick_ = when;
    last_sample_time_ = when - period_;
}

void
MonsoonMonitor::TakeSample()
{
    if (injector_ != nullptr && !injector_->OnRead(fault_query_).ok()) {
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
    if (config_.trace_decimation > 0 &&
        sample_count_ % static_cast<uint64_t>(config_.trace_decimation) == 0) {
        // aeo-lint: allow(hot-path-alloc) -- the decimated power trace is
        // the meter's output artifact; growth here IS the product.
        trace_.push_back(PowerSample{sim_->Now(), Milliwatts(measured_mw)});
    }
}

Milliwatts
MonsoonMonitor::MeasuredAveragePower()
{
    CatchUp();
    if (sample_count_ == 0) {
        return Milliwatts(0.0);
    }
    return Milliwatts(power_sum_mw_ / static_cast<double>(sample_count_));
}

Milliwatts
MonsoonMonitor::DrainWindowAveragePower()
{
    CatchUp();
    if (window_count_ == 0) {
        return MeasuredAveragePower();
    }
    const Milliwatts avg(window_sum_mw_ / static_cast<double>(window_count_));
    window_sum_mw_ = 0.0;
    window_count_ = 0;
    return avg;
}

Joules
MonsoonMonitor::MeasuredEnergy()
{
    return MeasuredAveragePower() * ObservedDuration().ToSeconds();
}

SimTime
MonsoonMonitor::ObservedDuration()
{
    CatchUp();
    return last_sample_time_ - start_time_;
}

void
MonsoonMonitor::Reset()
{
    // Samples already taken consume their noise draws before being dropped.
    CatchUp();
    power_sum_mw_ = 0.0;
    sample_count_ = 0;
    window_sum_mw_ = 0.0;
    window_count_ = 0;
    trace_.clear();
    start_time_ = sim_->Now();
    last_sample_time_ = start_time_;
}

}  // namespace aeo
