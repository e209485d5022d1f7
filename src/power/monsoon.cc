#include "power/monsoon.h"

#include <cmath>
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
    if (injector_ != nullptr) {
        injector_->SetSyncHook(nullptr);
    }
}

void
MonsoonMonitor::SetFaultInjector(FaultInjector* injector)
{
    AEO_ASSERT(!on_clock_, "attach or detach an injector while stopped");
    if (injector_ != nullptr) {
        injector_->SetSyncHook(nullptr);
    }
    injector_ = injector;
    // Memoized against the previous injector's topology versions.
    fault_query_ = FaultInjector::PathQuery(kMonsoonFaultPath);
    if (injector_ != nullptr) {
        // Every other operation on the injector waits until the ticks
        // before it have taken their decisions.
        injector_->SetSyncHook([this] { CatchUp(); });
    }
}

void
MonsoonMonitor::Start()
{
    Stop();
    start_time_ = sim_->Now();
    last_sample_time_ = start_time_;
    sim_->StartSampleClock(period_, [this] { CatchUp(); });
    on_clock_ = true;
    ticks_seen_ = 0;
    next_tick_ = start_time_ + period_;
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
}

// aeo: hot-path
void
MonsoonMonitor::RecordPendingTicks()
{
    const auto pending = static_cast<int64_t>(sim_->sample_ticks() - ticks_seen_);
    ticks_seen_ = sim_->sample_ticks();
    const SimTime first = next_tick_;
    next_tick_ = first + period_ * pending;
    int64_t kept = pending;
    SimTime last_kept = next_tick_ - period_;
    if (injector_ != nullptr) {
        // The ticks take their meter decisions in tick order, as one block
        // read; the injector's sync hook runs this before any other
        // operation, so the decisions keep their per-sample places among the
        // sysfs and PMU operations, and a block that no rule covers and
        // nothing has latched costs one addition.
        const FaultInjector::ReadBlock block =
            injector_->OnReadBlock(fault_query_, pending);
        dropped_sample_count_ += static_cast<uint64_t>(pending - block.kept);
        if (block.kept == 0) {
            return;
        }
        kept = block.kept;
        last_kept = first + period_ * block.last_kept;
    }
    // The source has not changed since the previous catch-up, so the kept
    // ticks share one true power, and the sum of their k independent
    // N(0, 1) noise terms has exactly the law of sqrt(k)·N(0, 1): one draw
    // serves the whole block (DESIGN.md §14 "Batched power sampling").
    const double k = static_cast<double>(kept);
    const double measured_mw =
        power_source_().value() * (k + std::sqrt(k) * NextNoise());
    power_sum_mw_ += measured_mw;
    window_sum_mw_ += measured_mw;
    sample_count_ += static_cast<uint64_t>(kept);
    window_count_ += static_cast<uint64_t>(kept);
    last_sample_time_ = last_kept;
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
    start_time_ = sim_->Now();
    last_sample_time_ = start_time_;
}

}  // namespace aeo
