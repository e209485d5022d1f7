/**
 * @file
 * The scheduler S of the feedback loop (Fig. 2), now the platform layer's
 * Actuator implementation: applies resolved dwell plans to the phone
 * through the userspace governors' sysfs files, honouring the 200 ms
 * minimum dwell the paper's implementation enforces (§V-A: "the smallest
 * duration for the CPUs to stay at any given frequency is 200 ms"). Not to
 * be confused with the OS scheduler.
 *
 * Actuation is hardened against the failures a real Nexus 6 exhibits:
 *
 *  - transient errors (EBUSY/EIO, injected or real) are retried with capped
 *    exponential backoff, the cumulative delay bounded by the min-dwell
 *    budget so a flaky write can never eat into the next slot;
 *  - EINVAL (a rejected target) falls back to the nearest accepted
 *    frequency, walking outward through the OPP table;
 *  - every exhausted operation is counted, and consecutive fully-failed
 *    Apply() cycles are tracked so the controller's watchdog can revert to
 *    the stock governors after K strikes;
 *  - every accepted write is *verified by read-back*: the subsystem's
 *    cur_freq is re-read and compared against the request, so a write that
 *    succeeds but silently delivers a lower operating point (msm_thermal's
 *    clamp, an injected silent-clamp fault) is detected rather than trusted.
 *
 * The per-dwell path is allocation-free: sysfs nodes are opened once as
 * interned SysfsHandles, and the candidate value strings for every target
 * level (nearest-first, for the EINVAL fallback walk) are precomputed at
 * construction from the device's immutable OPP tables.
 */
#ifndef AEO_PLATFORM_CONFIG_SCHEDULER_H_
#define AEO_PLATFORM_CONFIG_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/dvfs_policy.h"
#include "kernel/sysfs.h"
#include "platform/platform.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace aeo {
class Device;
}  // namespace aeo

namespace aeo::platform {

/** Applies configuration plans to the simulated device. */
class ConfigScheduler final : public Actuator {
  public:
    /** Maximum retries per write after the initial attempt. */
    static constexpr int kMaxRetries = 4;
    /** First backoff delay; doubles on each subsequent retry. The
     * cumulative backoff (plus injected latency) one write may consume is
     * capped at the min dwell, keeping retrial inside the dwell budget. */
    static constexpr SimTime kInitialBackoff = SimTime::Millis(12);
    static_assert(kMaxRetries >= 0, "negative retry count");
    static_assert(kInitialBackoff > SimTime::Zero(), "backoff must be positive");

    /**
     * @param device    The plant; must outlive the scheduler.
     * @param min_dwell Minimum time at any configuration (200 ms), and the
     *                  backoff budget of one write.
     */
    explicit ConfigScheduler(Device* device,
                             SimTime min_dwell = SimTime::Millis(200));

    /** Replaces the min dwell (see Actuator). */
    void ConfigureActuation(SimTime min_dwell) override;

    void Apply(const ActuationPlan& plan) override;

    /**
     * Writes one configuration immediately, retrying transient failures and
     * substituting the nearest accepted level on EINVAL.
     *
     * @return true if every subsystem write eventually succeeded.
     */
    bool ApplyConfigNow(const SystemConfig& config);

    void CancelPending() override;

    /** Total successful sysfs configuration writes performed. */
    uint64_t write_count() const { return stats_.writes; }

    const ActuationStats& stats() const override { return stats_; }

    void SetReadbackVerification(bool on) override { readback_ = on; }

    const std::vector<DwellDelivery>& cycle_deliveries() const override
    {
        return cycle_deliveries_;
    }

    void ResetFailureTracking() override;

    int consecutive_failed_applies() const override;

    /** Pokes scaling_setspeed with a harmless value: EINVAL still proves
     * the path is alive; transport-level errors prove it is not. */
    bool ProbeActuationPath() override;

  private:
    /**
     * Everything needed to actuate one subsystem without allocating: the
     * interned set/readback nodes, and — per target level — the candidate
     * value strings (and their level indices) ordered by distance from the
     * target, which the EINVAL fallback walks outward.
     */
    struct SubsystemActuator {
        SysfsHandle set;
        SysfsHandle readback;
        std::vector<std::vector<std::string>> candidates;
        std::vector<std::vector<int>> levels;
        /** The subsystem's policy: maps a raw readback value to the
         * nearest table level. */
        const DvfsPolicy* policy = nullptr;
    };

    /** @p policy's plan: its userspace target and cur_freq nodes, and per
     * target level the candidates, nearest rounded value first. */
    static SubsystemActuator PlanFor(const DvfsPolicy& policy);

    /** Retries @p value at @p node under the backoff budget. */
    FaultErrc WriteWithRetry(SysfsHandle node, const std::string& value);

    /** One subsystem write with EINVAL fallback over candidate values,
     * ordered preferred-first. @p accepted_index receives the index of the
     * candidate that succeeded (untouched on failure). */
    bool WriteWithFallback(SysfsHandle node,
                           const std::vector<std::string>& candidates,
                           size_t* accepted_index = nullptr);

    /** Writes @p target on @p plan's node (with fallback + read-back) and
     * records the outcome in @p delivery. */
    void ActuateSubsystem(const SubsystemActuator& plan, int target,
                          ActuationDelivery* delivery);

    /** Re-reads @p plan's readback node and fills in the verification half
     * of @p delivery. */
    void VerifyDelivery(const SubsystemActuator& plan,
                        ActuationDelivery* delivery);

    void NoteOpOutcome(bool ok);

    Device* device_;
    /** One frequency plan per CPU cluster, in topology order. */
    std::vector<SubsystemActuator> cpu_plans_;
    SubsystemActuator bw_plan_;
    SubsystemActuator gpu_plan_;
    SimTime min_dwell_;
    ActuationStats stats_;
    std::vector<EventId> pending_;
    std::vector<DwellDelivery> cycle_deliveries_;
    bool readback_ = true;
    /** Completed Apply() cycles that failed, consecutively. */
    int failed_cycles_in_a_row_ = 0;
    /** Whether any op has failed in the current cycle. */
    bool cycle_has_failure_ = false;
    bool cycle_open_ = false;
};

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_CONFIG_SCHEDULER_H_
