/**
 * @file
 * The offline profile table (§III-A, Table I): per system configuration,
 * the application's average speedup 𝕊 (normalized to the lowest profiled
 * configuration) and average device power ℙ. The online controller's energy
 * optimizer works entirely from this table.
 */
#ifndef AEO_CORE_PROFILE_TABLE_H_
#define AEO_CORE_PROFILE_TABLE_H_

#include <string>
#include <vector>

#include "common/units.h"
#include "common/system_config.h"
#include "soc/bandwidth_table.h"

namespace aeo {

/** One profiled row: configuration, speedup and power. */
struct ProfileEntry {
    SystemConfig config;
    /** Average speedup 𝕊 relative to the base configuration. */
    double speedup = 1.0;
    /** Average device power ℙ at this configuration. */
    Milliwatts power_mw;
};

/** Raw measurement before normalization. */
struct ProfileMeasurement {
    SystemConfig config;
    /** Average application performance, GIPS. */
    double gips = 0.0;
    /** Average device power. */
    Milliwatts power_mw;
};

/** Immutable profile table sorted by ascending speedup. */
class ProfileTable {
  public:
    /**
     * @param app_name        Application the table profiles.
     * @param entries         Profiled rows (any order; sorted internally).
     * @param base_speed_gips Absolute performance of the speedup-1 reference.
     */
    ProfileTable(std::string app_name, std::vector<ProfileEntry> entries,
                 double base_speed_gips);

    /**
     * Builds a table from raw measurements: speedups are normalized to the
     * slowest measured configuration (the paper's "lowest system
     * configuration" reference).
     */
    static ProfileTable FromMeasurements(
        const std::string& app_name,
        const std::vector<ProfileMeasurement>& measurements);

    /** Application name. */
    const std::string& app_name() const { return app_name_; }

    /** Rows in ascending speedup order. */
    const std::vector<ProfileEntry>& entries() const { return entries_; }

    /** Number of rows (N in the paper's notation). */
    size_t size() const { return entries_.size(); }

    /** Base speed b: GIPS of the speedup-1 reference configuration. */
    double base_speed_gips() const { return base_speed_gips_; }

    /** Smallest achievable speedup. */
    double min_speedup() const { return entries_.front().speedup; }

    /** Largest achievable speedup. */
    double max_speedup() const { return entries_.back().speedup; }

    /** Speedup corresponding to an absolute GIPS value. */
    double SpeedupForGips(double gips) const { return gips / base_speed_gips_; }

    /** Absolute GIPS for a speedup value. */
    double GipsForSpeedup(double speedup) const { return speedup * base_speed_gips_; }

    /**
     * Densifies bandwidth columns by linear interpolation (§III-A): for each
     * CPU level the table must contain the lowest and highest profiled
     * bandwidth; each missing level in @p bw_table is interpolated in
     * bandwidth for both speedup and power.
     */
    ProfileTable InterpolateBandwidths(const BandwidthTable& bw_table) const;

    /**
     * Application-specific pruning (§V-A): drops rows whose extra speedup
     * over a *cheaper* row is within measurement noise. The paper excludes
     * "the high frequencies ... based on the performance/power
     * characteristics of the profiled data" — e.g. MX Player's performance
     * varies only 0.4 % beyond level 5, so paying more power for it is
     * pointless and only destabilizes the controller.
     *
     * @param epsilon_rel A row is dropped when another row has strictly
     *        lower power and a speedup within epsilon_rel·max_speedup below
     *        (or above) this row's.
     */
    ProfileTable PruneEpsilonDominated(double epsilon_rel) const;

    /**
     * The other half of the §V-A exclusion: cuts the steep tail of the
     * energy/performance frontier. Walking the rows in ascending speedup,
     * the marginal cost of each step — ΔmW per unit of speedup — is
     * compared against the table-wide average slope (power range over
     * speedup range); once a step costs more than @p slope_factor times
     * that average, it and every faster row are dropped. On a wide
     * heterogeneous cross-product the last few percent of speedup can cost
     * half again the platform's power (big and LITTLE both at fmax); when
     * the regulator saturates — a measurement dip, a phase change — it pegs
     * the most expensive row, so a disproportionate tail turns transient
     * saturation into a massive energy regression. The paper prunes these
     * rows by hand per application; this automates the same judgement.
     *
     * Rows with speedup ≤ @p protect_below_speedup are never cut, so the
     * caller can guarantee the target QoS region survives (pass 0 for an
     * unconditional cut, or the target speedup plus margin).
     */
    ProfileTable PruneSteepTail(double slope_factor,
                                double protect_below_speedup) const;

    /** Serializes to CSV (cpu_level, bw_level, speedup, power_mw columns). */
    std::string ToCsv() const;

    /** Paper-style rendering (Table I). */
    std::string ToString() const;

  private:
    void Validate() const;

    std::string app_name_;
    std::vector<ProfileEntry> entries_;
    double base_speed_gips_;
};

}  // namespace aeo

#endif  // AEO_CORE_PROFILE_TABLE_H_
