#include "kernel/perf_tool.h"

#include <algorithm>

#include "common/logging.h"

namespace aeo {

PerfTool::PerfTool(Simulator* sim, const Pmu* pmu, uint64_t rng_seed,
                   PerfToolConfig config)
    : sim_(sim),
      pmu_(pmu),
      rng_(rng_seed),
      config_(config),
      period_(std::max(config.sampling_period, kMinSamplingPeriod)),
      task_(sim, [this] { TakeSample(); })
{
    AEO_ASSERT(sim_ != nullptr && pmu_ != nullptr, "perf tool wired with nulls");
    AEO_ASSERT(config_.cpu_overhead_at_1s >= 0.0 && config_.cpu_overhead_at_1s < 1.0,
               "cpu overhead %f out of [0, 1)", config_.cpu_overhead_at_1s);
    if (config.sampling_period < kMinSamplingPeriod) {
        Warn("perf sampling period %lld ms below the 100 ms floor; clamped",
             static_cast<long long>(config.sampling_period.millis()));
    }
}

void
PerfTool::Start()
{
    if (sync_hook_) {
        sync_hook_();
    }
    last_instr_reading_ = pmu_->giga_instructions();
    last_reading_time_ = sim_->Now();
    if (run_state_hook_) {
        run_state_hook_();
    }
    task_.Start(period_);
}

void
PerfTool::Stop()
{
    if (run_state_hook_) {
        run_state_hook_();
    }
    task_.Stop();
}

double
PerfTool::cpu_overhead_fraction() const
{
    if (!task_.running()) {
        return 0.0;
    }
    // The paper measured 40 % overhead at a 100 ms period and 4 % at 1 s:
    // overhead scales with the sampling frequency.
    return std::min(0.9, config_.cpu_overhead_at_1s / period_.seconds());
}

double
PerfTool::power_overhead_mw() const
{
    if (!task_.running()) {
        return 0.0;
    }
    return config_.power_overhead_mw / period_.seconds();
}

void
PerfTool::TakeSample()
{
    if (sync_hook_) {
        sync_hook_();
    }
    const SimTime now = sim_->Now();
    bool stale = false;
    if (injector_ != nullptr) {
        const FaultDecision decision = injector_->OnRead(kPmuFaultPath);
        if (!decision.ok()) {
            // perf missed this interval entirely — no reading is recorded.
            // The next successful sample averages over the elapsed gap, so
            // the rate stays well-defined; the window just has fewer
            // samples (possibly none).
            ++dropped_sample_count_;
            return;
        }
        stale = decision.stale;
    }
    double measured;
    if (stale) {
        // A stale counter read repeats the previous value: the delta is
        // zero and the sample reads as 0 GIPS — plausible-looking garbage,
        // exactly what a wedged PMU produces on hardware.
        ++stale_sample_count_;
        measured = 0.0;
    } else {
        const double instr = pmu_->giga_instructions();
        const double elapsed = (now - last_reading_time_).seconds();
        const double true_gips =
            elapsed > 0.0 ? (instr - last_instr_reading_) / elapsed : 0.0;
        last_instr_reading_ = instr;
        last_reading_time_ = now;
        measured = std::max(
            0.0, true_gips * (1.0 + rng_.Gaussian(0.0, config_.noise_rel_stddev)));
    }
    ++sample_count_;
    window_sum_ += measured;
    ++window_count_;
}

PerfWindow
PerfTool::DrainWindow()
{
    PerfWindow window;
    window.samples = window_count_;
    if (window_count_ > 0) {
        window.avg_gips = window_sum_ / static_cast<double>(window_count_);
    }
    window_sum_ = 0.0;
    window_count_ = 0;
    return window;
}

}  // namespace aeo
