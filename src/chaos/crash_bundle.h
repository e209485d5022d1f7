/**
 * @file
 * The replayable crash bundle a failing chaos campaign leaves behind.
 *
 * A bundle is one JSON document holding everything needed to reproduce a
 * first violation bit-for-bit on another machine: the campaign seed, the
 * (shrunk) scenario, the deterministic run parameters (app, target,
 * profile seed/runs, device seed, the controller knobs that affect the
 * trace), the monitor verdicts observed at capture time, and the last N
 * control-cycle records for post-mortem reading.
 *
 * `robustness_chaos_campaign --replay=<bundle.json>` re-runs the bundle and
 * checks the replay reproduces the recorded first-violation cycle.
 */
#ifndef AEO_CHAOS_CRASH_BUNDLE_H_
#define AEO_CHAOS_CRASH_BUNDLE_H_

#include <cstdint>
#include <string>

#include "chaos/campaign.h"
#include "chaos/scenario.h"

namespace aeo::chaos {

/** Bundle schema version (bump on incompatible layout changes). */
inline constexpr int kCrashBundleVersion = 1;

/** A replayable failure capsule. */
struct CrashBundle {
    int version = kCrashBundleVersion;
    /** Application under control. */
    std::string app;
    /** Performance target r, GIPS. */
    double target_gips = 0.0;
    /** Offline-profiler seed and averaging runs (to rebuild the table). */
    uint64_t profile_seed = 0;
    int profile_runs = 1;
    /** Device seed the campaign ran with (post-derivation, never 0). */
    uint64_t device_seed = 0;
    bool enable_thermal = true;
    /** Controller knobs that shape the trace (defaults otherwise). */
    bool readback_verification = true;
    int cap_confirm_cycles = 2;
    bool reengage = true;
    /** Spec the scenario was generated under. */
    CampaignSpec spec;
    /** The failing (typically shrunk) scenario. */
    ChaosScenario scenario;
    /** Verdicts and cycle tail observed when the bundle was captured. */
    CampaignReport report;
};

/** Bundle <-> JSON. */
JsonValue CrashBundleToJson(const CrashBundle& bundle);

/** Outcome of ReadCrashBundle(). */
struct CrashBundleReadResult {
    bool ok = false;
    CrashBundle bundle;
    std::string error;
};

/** Parses a bundle from JSON text (validates version, counts and scenario). */
CrashBundleReadResult ParseCrashBundle(const std::string& text);

/** Writes @p bundle to @p path as indented JSON. False on I/O failure. */
bool WriteCrashBundle(const std::string& path, const CrashBundle& bundle);

/** Reads and parses a bundle file. */
CrashBundleReadResult ReadCrashBundle(const std::string& path);

}  // namespace aeo::chaos

#endif  // AEO_CHAOS_CRASH_BUNDLE_H_
