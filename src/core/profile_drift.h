/**
 * @file
 * Online profile-drift detection. The offline profile table (§III-A) is
 * measured on a cool, healthy device; at run time the plant drifts away
 * from it — temperature-dependent leakage inflates power, contention or
 * aging erodes speedup. The controller compares what it *measured* each
 * cycle against what the table *predicted* for the configurations actually
 * delivered (per read-back verification), maintains a per-configuration
 * EWMA of the multiplicative residual, and exposes bounded correction
 * factors once the residual is both well-observed and beyond a noise
 * threshold. Corrections multiply the working copy of the table, so the
 * LP re-optimizes against reality rather than the stale profile.
 *
 * Alongside the per-row states the detector keeps one *global* residual
 * EWMA fed by every observation; rows without enough evidence of their own
 * inherit the global correction. The dominant drift mechanism (temperature-
 * dependent leakage) shifts the whole power surface at once, and without
 * the global fallback the optimizer plays whack-a-mole: corrected rows look
 * expensive, so the LP flees to not-yet-visited rows whose stale entries
 * look artificially cheap.
 */
#ifndef AEO_CORE_PROFILE_DRIFT_H_
#define AEO_CORE_PROFILE_DRIFT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aeo {

/** Drift-detector switch. */
struct DriftConfig {
    /**
     * Master switch; disabled, all corrections are exactly 1. Off by
     * default: corrections react to genuinely persistent residuals, but a
     * phase-heavy application passes through transients (the Kalman base-
     * speed estimate catching up to a phase change) that can momentarily
     * look like drift — a controller run must opt in deliberately, keeping
     * default runs bit-identical to the uncorrected controller.
     */
    bool enabled = false;
};

/** One drift observation, kept for analysis. */
struct DriftRecord {
    double time_s = 0.0;
    /** Profile-table row the observation attributes to. */
    size_t entry_index = 0;
    /** Dwell weight of the attribution (fraction of the cycle). */
    double weight = 0.0;
    /** measured/predicted power this cycle. */
    double power_residual = 1.0;
    /** measured/predicted speedup this cycle. */
    double speedup_residual = 1.0;
    /** Smoothed residuals after this observation. */
    double power_ewma = 1.0;
    double speedup_ewma = 1.0;
};

/** Per-configuration EWMA drift state over a profile table's rows. */
class ProfileDriftDetector {
  public:
    /** EWMA smoothing factor per unit of dwell weight. */
    static constexpr double kEwmaAlpha = 0.25;
    /**
     * Dead zone: corrections activate only once |EWMA − 1| exceeds this.
     * Fault-free residuals sit within a few percent (measurement noise,
     * quantization), so this keeps healthy runs untouched.
     */
    static constexpr double kThreshold = 0.10;
    /**
     * Minimum accumulated dwell weight (in control cycles' worth of
     * residency) before an entry's correction may activate — a few noisy
     * cycles must not rewrite the table.
     */
    static constexpr double kMinWeight = 3.0;
    /** Correction factors are clamped into [kMinCorrection, kMaxCorrection]. */
    static constexpr double kMinCorrection = 0.5;
    static constexpr double kMaxCorrection = 2.0;
    static_assert(kEwmaAlpha > 0.0 && kEwmaAlpha <= 1.0,
                  "drift EWMA alpha out of (0, 1]");
    static_assert(kThreshold >= 0.0, "negative drift threshold");
    static_assert(kMinWeight >= 0.0, "negative drift min weight");
    static_assert(kMinCorrection > 0.0 && kMinCorrection <= 1.0 &&
                      kMaxCorrection >= 1.0,
                  "drift correction bounds must bracket 1");

    /**
     * @param table_size Number of rows in the profile table tracked.
     * @param config     The on/off switch.
     */
    explicit ProfileDriftDetector(size_t table_size, DriftConfig config = {});

    /**
     * Feeds one cycle's residuals for a visited row.
     *
     * @param time_s           Simulation time of the observation.
     * @param entry_index      Row visited (by *delivered* configuration).
     * @param weight           Fraction of the cycle spent on the row.
     * @param power_residual   measured/predicted power.
     * @param speedup_residual measured/predicted speedup.
     */
    void Observe(double time_s, size_t entry_index, double weight,
                 double power_residual, double speedup_residual);

    /**
     * Multiplicative power correction for a row (1 = no correction). Rows
     * whose own accumulated weight is below kMinWeight inherit the global
     * correction instead.
     */
    double PowerCorrection(size_t entry_index) const;

    /** Multiplicative speedup correction for a row (1 = no correction);
     * falls back to the global correction like PowerCorrection. */
    double SpeedupCorrection(size_t entry_index) const;

    /** Table-wide power correction from the global residual EWMA. */
    double GlobalPowerCorrection() const;

    /** Table-wide speedup correction from the global residual EWMA. */
    double GlobalSpeedupCorrection() const;

    /** True when any row currently has an active correction. */
    bool AnyCorrection() const;

    /** Rows whose correction is currently active. */
    size_t corrected_entry_count() const;

    /** All observations so far. */
    const std::vector<DriftRecord>& trace() const { return trace_; }

    /** Total observations fed. */
    uint64_t observation_count() const { return trace_.size(); }

  private:
    struct EntryState {
        double weight = 0.0;
        double power_ewma = 1.0;
        double speedup_ewma = 1.0;
    };

    double CorrectionFrom(const EntryState& state, double ewma) const;

    bool enabled_;
    std::vector<EntryState> states_;
    /** Table-wide residual state, fed by every observation. */
    EntryState global_;
    std::vector<DriftRecord> trace_;
};

}  // namespace aeo

#endif  // AEO_CORE_PROFILE_DRIFT_H_
