/**
 * @file
 * Plain data types crossing the platform actuation boundary: health
 * counters and requested-vs-delivered records. These are the
 * vocabulary shared by the controller (policy side) and any Actuator
 * implementation (platform side); they deliberately depend on nothing but
 * the SystemConfig tuple, so policy code can use them without seeing a
 * single sysfs path.
 */
#ifndef AEO_PLATFORM_ACTUATION_TYPES_H_
#define AEO_PLATFORM_ACTUATION_TYPES_H_

#include <cstddef>
#include <cstdint>

#include "common/static_vector.h"
#include "common/system_config.h"

namespace aeo::platform {

/** Counters describing how actuation has gone so far. */
struct ActuationStats {
    /** Successful configuration writes. */
    uint64_t writes = 0;
    /** Retry attempts after transient failures. */
    uint64_t retries = 0;
    /** EINVAL fallbacks to a neighbouring accepted frequency. */
    uint64_t inval_fallbacks = 0;
    /**
     * Writes that exhausted their retry budget and gave up — the write
     * itself *failed* (the kernel returned an error). Distinct from
     * silent_clamps below, where the write succeeded but lied.
     */
    uint64_t failed_ops = 0;
    /** Writes whose read-back verification completed. */
    uint64_t verified_writes = 0;
    /**
     * Writes that were *accepted but not applied*: the write reported
     * success yet read-back showed a different operating point (thermal
     * throttling, an injected silent clamp). Invisible without read-back.
     */
    uint64_t silent_clamps = 0;
    /** Read-backs that themselves failed, leaving the write unverified. */
    uint64_t readback_failures = 0;
    /** Recovery probes of the actuation path (after a watchdog fallback). */
    uint64_t probes = 0;
};

/** Requested-vs-delivered outcome of one subsystem write. */
struct ActuationDelivery {
    /** Whether this subsystem was actuated at all in the dwell. */
    bool attempted = false;
    /** Whether the write (after retries/fallback) reported success. */
    bool write_ok = false;
    /** Whether read-back verification completed. */
    bool verified = false;
    /** Level the actuator asked for (after any EINVAL fallback). */
    int requested_level = -1;
    /** Level read back from the device; -1 when unverified. */
    int delivered_level = -1;

    /** True when the device silently delivered less than requested. */
    bool
    clamped() const
    {
        return verified && delivered_level < requested_level;
    }
};

/** Per-dwell delivery record across the actuated subsystems. */
struct DwellDelivery {
    /** The configuration the slot asked for. */
    SystemConfig requested_config;
    /** Planned dwell duration, seconds (0 for out-of-cycle applies). */
    double seconds = 0.0;
    ActuationDelivery cpu;
    ActuationDelivery bw;
    ActuationDelivery gpu;
    /** LITTLE-cluster frequency; attempted only on big.LITTLE plans. */
    ActuationDelivery little;

    /** Delivery of CPU cluster @p index: cpu for the primary, else little. */
    ActuationDelivery& cluster(size_t index) { return index == 0 ? cpu : little; }
};

/** One resolved dwell of an actuation plan: run @p config for @p seconds. */
struct PlannedDwell {
    SystemConfig config;
    double seconds = 0.0;
};

/**
 * A cycle's worth of resolved dwells, in application order. The optimizer's
 * LP admits an optimum with at most two non-zero dwells, so the storage is
 * inline and building a plan on the control path allocates nothing. The
 * controller resolves its profile-table slot indices into SystemConfigs
 * before crossing this boundary — the platform never sees a profile table.
 */
using ActuationPlan = StaticVector<PlannedDwell, 2>;

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_ACTUATION_TYPES_H_
