/**
 * @file
 * The chaos scenario model: what a campaign injects, as plain data.
 *
 * A ChaosScenario is a list of timed ScenarioActions, each one fault class
 * active over [start_s, start_s + duration_s) at a given intensity. The
 * classes map onto the repo's real failure seams — FaultInjector rules on
 * the sysfs/PMU/meter paths and the msm_thermal temperature threshold — so
 * a scenario perturbs the device exactly the way the hand-written
 * robustness benches do, but compositionally and under generator control.
 *
 * Scenarios and campaign specs round-trip through JSON (common/json.h) so
 * a failing scenario can be shrunk, written into a crash bundle, and
 * replayed bit-identically in another process.
 */
#ifndef AEO_CHAOS_SCENARIO_H_
#define AEO_CHAOS_SCENARIO_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"

namespace aeo::chaos {

/** One family of injected failure, keyed to a platform seam. */
enum class FaultClass {
    /** Transient EBUSY + latency spikes on cpufreq/devfreq writes. */
    kActuationBusy,
    /** Sticky EIO latching the cpufreq setspeed node until repaired. */
    kActuationSticky,
    /** Writes that report success but apply a clamped-down frequency. */
    kSilentClamp,
    /** Dropped and stale PMU (instruction counter) reads. */
    kPmuDrop,
    /** Missed power-meter sample windows. */
    kMeterDrop,
    /** Hotplug-style disappearance of the devfreq node (sticky ENOENT). */
    kPathDisappear,
    /** msm_thermal threshold lowered so the driver stages a frequency cap. */
    kThermalCap,
    /** Control ticks delivered late by a random fraction of the period. */
    kTickJitterStorm,
    /** Handler overruns: every tick in the window lands a fixed slice
     * late, as if the previous handler ran long under CPU contention. */
    kTickOverrun,
    /** Suspend/resume: ticks due inside the window are deferred to its
     * end, modelling the SoC sleeping through the epoch. */
    kSuspendResume,
    /** Monotonic-clock step/skew: the platform clock jumps forward inside
     * the window (never backwards — the seam is monotonic). */
    kClockSkew,
};

inline constexpr int kFaultClassCount = 11;

/** Stable wire name ("actuation-busy", ...) used in scenario JSON. */
const char* FaultClassName(FaultClass cls);

/** Inverse of FaultClassName; false when @p name is unknown. */
bool FaultClassFromName(const std::string& name, FaultClass* cls);

/** One fault class active over a time window. */
struct ScenarioAction {
    FaultClass cls = FaultClass::kActuationBusy;
    /** Window start, seconds from campaign start. */
    double start_s = 0.0;
    /** Window length, seconds. */
    double duration_s = 1.0;
    /** Severity in [0, 1]; maps to the class's fault probabilities. */
    double intensity = 0.5;
};

/** A generated (or shrunk) compound fault scenario. */
struct ChaosScenario {
    /** The seed the generator derived this scenario from. */
    uint64_t seed = 0;
    /** Injected actions, sorted by start_s. */
    std::vector<ScenarioAction> actions;
};

/** Generator tuning: what kind of adversity a campaign applies. */
struct CampaignSpec {
    /** Campaign length, seconds of simulated time. */
    double duration_s = 120.0;
    /** Relative weight of each FaultClass (index = enum value; zero
     * disables the class). */
    std::vector<double> class_weights =
        std::vector<double>(kFaultClassCount, 1.0);
    /** Intensity at campaign start, in [0, 1]. */
    double base_intensity = 0.3;
    /** Added to the intensity linearly by campaign end (a slow
     * degradation drift); may be negative. */
    double intensity_ramp = 0.2;
    /** Expected fault bursts per minute of campaign time. */
    double bursts_per_minute = 3.0;
    /** Burst window length bounds, seconds. */
    double min_duration_s = 2.0;
    double max_duration_s = 20.0;
    /** Hard cap on generated actions (generator stops early at the cap). */
    int max_actions = 32;
    /**
     * Phase anchoring: with this probability a burst's start snaps to the
     * nearest multiple of phase_anchor_period_s, modelling faults arriving
     * correlated with application phase boundaries rather than uniformly.
     * A period of 0 disables anchoring.
     */
    double phase_anchor_period_s = 0.0;
    double anchor_probability = 0.5;
    /** With this probability a burst is a correlated storm of storm_size
     * actions sharing one window (distinct classes where possible). */
    double storm_probability = 0.2;
    int storm_size = 3;
};

/**
 * 64-bit seeds travel as decimal strings: JSON numbers are doubles and
 * silently drop the low bits of values above 2^53 — enough to break a
 * bit-exact replay. SeedFromJson() accepts only that form: a string of
 * decimal digits that fits 64 bits.
 */
JsonValue SeedToJson(uint64_t seed);
bool SeedFromJson(const JsonValue& value, uint64_t* seed);

/**
 * Reads the required fields of one object of a replay input (a crash
 * bundle, a scenario, a campaign spec). Each field must be present, of the
 * type the writer writes, and inside its range. The first one that is not
 * stops the reader with an error naming the field, and later reads do
 * nothing: a replay refuses such an input rather than run a default.
 */
class FieldReader {
  public:
    /**
     * @param object The object to read; anything else is an error.
     * @param what   Names the object in errors, e.g. "bundle".
     * @param error  Receives the first error.
     */
    FieldReader(const JsonValue& object, std::string what, std::string* error);

    /** A number in [min, max]. */
    FieldReader& Number(const char* field, double min, double max, double* out);

    /** An integral number in [min, max]; both bounds are exact doubles. */
    template <typename Int>
    FieldReader&
    Integer(const char* field, Int min, Int max, Int* out)
    {
        double value = 0.0;
        if (Integral(field, static_cast<double>(min), static_cast<double>(max),
                     &value)) {
            *out = static_cast<Int>(value);
        }
        return *this;
    }

    FieldReader& Bool(const char* field, bool* out);
    FieldReader& String(const char* field, std::string* out);
    /** A seed in SeedToJson()'s form. */
    FieldReader& Seed(const char* field, uint64_t* out);
    /** A member of @p type (an array, an object); @p out points into the
     * object. */
    FieldReader& Member(const char* field, JsonValue::Type type,
                        const JsonValue** out);

    /** Stops the reader with "<what> <message>". */
    void Fail(const std::string& message);

    /** True while every read so far succeeded. */
    bool ok() const { return ok_; }

  private:
    bool Integral(const char* field, double min, double max, double* out);

    const JsonValue& object_;
    std::string what_;
    std::string* error_;
    bool ok_ = true;
};

/** FieldReader bounds: the largest finite double, the smallest positive. */
inline constexpr double kMaxFinite = std::numeric_limits<double>::max();
inline constexpr double kMinPositive = std::numeric_limits<double>::denorm_min();

/** Scenario <-> JSON (see DESIGN.md §12 for the schema). */
JsonValue ScenarioToJson(const ChaosScenario& scenario);
bool ScenarioFromJson(const JsonValue& json, ChaosScenario* scenario,
                      std::string* error);

/** CampaignSpec <-> JSON. */
JsonValue CampaignSpecToJson(const CampaignSpec& spec);
bool CampaignSpecFromJson(const JsonValue& json, CampaignSpec* spec,
                          std::string* error);

}  // namespace aeo::chaos

#endif  // AEO_CHAOS_SCENARIO_H_
