#include "core/profile_drift.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aeo {

ProfileDriftDetector::ProfileDriftDetector(size_t table_size, DriftConfig config)
    : enabled_(config.enabled), states_(table_size)
{
    AEO_ASSERT(table_size > 0, "drift detector over an empty table");
}

void
ProfileDriftDetector::Observe(double time_s, size_t entry_index, double weight,
                              double power_residual, double speedup_residual)
{
    if (!enabled_) {
        return;
    }
    AEO_ASSERT(entry_index < states_.size(), "drift index %zu out of range",
               entry_index);
    if (weight <= 0.0 || !std::isfinite(power_residual) ||
        !std::isfinite(speedup_residual) || power_residual <= 0.0 ||
        speedup_residual <= 0.0) {
        return;  // Unattributable or garbage cycle: learn nothing.
    }
    EntryState& state = states_[entry_index];
    state.weight += weight;
    // The EWMA starts at 1 (no drift) and blends proportionally to the dwell
    // weight, so a 10 % visit moves the estimate a tenth as far as a full
    // cycle would.
    const double alpha = std::min(1.0, kEwmaAlpha * weight);
    state.power_ewma =
        (1.0 - alpha) * state.power_ewma + alpha * power_residual;
    state.speedup_ewma =
        (1.0 - alpha) * state.speedup_ewma + alpha * speedup_residual;

    // Every observation also feeds the table-wide state backing the
    // global-fallback correction for rows not yet visited.
    global_.weight += weight;
    global_.power_ewma =
        (1.0 - alpha) * global_.power_ewma + alpha * power_residual;
    global_.speedup_ewma =
        (1.0 - alpha) * global_.speedup_ewma + alpha * speedup_residual;

    DriftRecord record;
    record.time_s = time_s;
    record.entry_index = entry_index;
    record.weight = weight;
    record.power_residual = power_residual;
    record.speedup_residual = speedup_residual;
    record.power_ewma = state.power_ewma;
    record.speedup_ewma = state.speedup_ewma;
    // aeo-lint: allow(hot-path-alloc) -- the drift trace is the
    // detector's output artifact; growth here IS the product.
    trace_.push_back(record);
}

double
ProfileDriftDetector::CorrectionFrom(const EntryState& state, double ewma) const
{
    if (!enabled_ || state.weight < kMinWeight ||
        std::abs(ewma - 1.0) <= kThreshold) {
        return 1.0;
    }
    return std::clamp(ewma, kMinCorrection, kMaxCorrection);
}

double
ProfileDriftDetector::PowerCorrection(size_t entry_index) const
{
    AEO_ASSERT(entry_index < states_.size(), "drift index %zu out of range",
               entry_index);
    const EntryState& state = states_[entry_index];
    if (state.weight < kMinWeight) {
        return GlobalPowerCorrection();
    }
    return CorrectionFrom(state, state.power_ewma);
}

double
ProfileDriftDetector::SpeedupCorrection(size_t entry_index) const
{
    AEO_ASSERT(entry_index < states_.size(), "drift index %zu out of range",
               entry_index);
    const EntryState& state = states_[entry_index];
    if (state.weight < kMinWeight) {
        return GlobalSpeedupCorrection();
    }
    return CorrectionFrom(state, state.speedup_ewma);
}

double
ProfileDriftDetector::GlobalPowerCorrection() const
{
    return CorrectionFrom(global_, global_.power_ewma);
}

double
ProfileDriftDetector::GlobalSpeedupCorrection() const
{
    return CorrectionFrom(global_, global_.speedup_ewma);
}

bool
ProfileDriftDetector::AnyCorrection() const
{
    return corrected_entry_count() > 0;
}

size_t
ProfileDriftDetector::corrected_entry_count() const
{
    size_t count = 0;
    for (size_t i = 0; i < states_.size(); ++i) {
        if (PowerCorrection(i) != 1.0 || SpeedupCorrection(i) != 1.0) {
            ++count;
        }
    }
    return count;
}

}  // namespace aeo
