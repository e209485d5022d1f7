#include "platform/config_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"
#include "device/device.h"

namespace aeo::platform {

ConfigScheduler::ConfigScheduler(Device* device, SimTime min_dwell)
    : device_(device)
{
    AEO_ASSERT(device_ != nullptr, "scheduler needs a device");
    ConfigureActuation(min_dwell);

    // Precompute every actuation plan once: the OPP tables are immutable for
    // the device's lifetime, so the per-dwell path below never formats a
    // value string, builds a path, or sorts a fallback order again.
    cpu_plans_.reserve(device_->num_clusters());
    for (size_t i = 0; i < device_->num_clusters(); ++i) {
        cpu_plans_.push_back(PlanFor(device_->cpufreq(i)));
    }
    bw_plan_ = PlanFor(device_->devfreq());
    gpu_plan_ = PlanFor(device_->gpufreq());
}

ConfigScheduler::SubsystemActuator
ConfigScheduler::PlanFor(const DvfsPolicy& policy)
{
    SubsystemActuator plan;
    plan.set = policy.Open(&DvfsSysfsNames::set_freq);
    plan.readback = policy.Open(&DvfsSysfsNames::cur_freq);
    plan.policy = &policy;
    const auto size = static_cast<size_t>(policy.num_levels());
    plan.candidates.resize(size);
    plan.levels.resize(size);
    for (size_t target = 0; target < size; ++target) {
        // Nearest value first; a tie goes to the lower level.
        std::vector<int>& order = plan.levels[target];
        order.resize(size);
        std::iota(order.begin(), order.end(), 0);
        const long long want = policy.RoundedValue(static_cast<int>(target));
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return std::llabs(policy.RoundedValue(a) - want) <
                   std::llabs(policy.RoundedValue(b) - want);
        });
        plan.candidates[target].reserve(size);
        for (const int level : order) {
            plan.candidates[target].push_back(policy.FormatLevel(level));
        }
    }
    return plan;
}

void
ConfigScheduler::ConfigureActuation(SimTime min_dwell)
{
    min_dwell_ = min_dwell;
    AEO_ASSERT(min_dwell_ > SimTime::Zero(), "minimum dwell must be positive");
}

FaultErrc
ConfigScheduler::WriteWithRetry(SysfsHandle node, const std::string& value)
{
    Sysfs& sysfs = device_->sysfs();
    // The backoff clock is budget accounting, not event scheduling: the
    // retries complete atomically inside the actuating event, but the
    // delays they would have cost are charged against the min-dwell budget
    // so a flaky node can only be retried as often as 200 ms permits.
    SimTime spent = SimTime::Zero();
    SimTime backoff = kInitialBackoff;
    FaultErrc errc = sysfs.TryWrite(node, value);
    spent += sysfs.last_injected_latency();
    for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
        const bool retryable = errc == FaultErrc::kBusy ||
                               errc == FaultErrc::kIo ||
                               errc == FaultErrc::kNoEnt;
        if (!retryable || spent + backoff > min_dwell_) {
            break;
        }
        spent += backoff;
        backoff = backoff * 2;
        ++stats_.retries;
        errc = sysfs.TryWrite(node, value);
        spent += sysfs.last_injected_latency();
    }
    return errc;
}

bool
ConfigScheduler::WriteWithFallback(SysfsHandle node,
                                   const std::vector<std::string>& candidates,
                                   size_t* accepted_index)
{
    AEO_ASSERT(!candidates.empty(), "no candidate values for '%s'",
               device_->sysfs().PathOf(node).c_str());
    for (size_t i = 0; i < candidates.size(); ++i) {
        const FaultErrc errc = WriteWithRetry(node, candidates[i]);
        if (errc == FaultErrc::kOk) {
            if (i > 0) {
                ++stats_.inval_fallbacks;
                Warn("sysfs write '%s' <- '%s' rejected; fell back to nearest "
                     "accepted value '%s'",
                     device_->sysfs().PathOf(node).c_str(), candidates[0].c_str(),
                     candidates[i].c_str());
            }
            ++stats_.writes;
            if (accepted_index != nullptr) {
                *accepted_index = i;
            }
            NoteOpOutcome(true);
            return true;
        }
        if (errc != FaultErrc::kInval) {
            // Transient retries exhausted (or the node is gone/read-only):
            // trying a different value will not help.
            Warn("sysfs write '%s' <- '%s' failed: %s (retries exhausted)",
                 device_->sysfs().PathOf(node).c_str(), candidates[i].c_str(),
                 FaultErrcName(errc));
            ++stats_.failed_ops;
            NoteOpOutcome(false);
            return false;
        }
        // EINVAL: this value is rejected; walk to the next-nearest one.
    }
    Warn("sysfs write '%s': all %zu candidate values rejected",
         device_->sysfs().PathOf(node).c_str(), candidates.size());
    ++stats_.failed_ops;
    NoteOpOutcome(false);
    return false;
}

void
ConfigScheduler::NoteOpOutcome(bool ok)
{
    if (!ok && cycle_open_) {
        cycle_has_failure_ = true;
    }
}

int
ConfigScheduler::consecutive_failed_applies() const
{
    return failed_cycles_in_a_row_ + (cycle_open_ && cycle_has_failure_ ? 1 : 0);
}

void
ConfigScheduler::ResetFailureTracking()
{
    failed_cycles_in_a_row_ = 0;
    cycle_has_failure_ = false;
    cycle_open_ = false;
}

bool
ConfigScheduler::ProbeActuationPath()
{
    ++stats_.probes;
    // Under a stock governor scaling_setspeed rejects the value with EINVAL
    // — that still proves the path is alive; transport-level errors
    // (EIO/EBUSY/ENOENT) prove it is not. "0" is harmless even if a
    // userspace governor were active: no table has a 0 kHz level.
    const FaultErrc errc = device_->sysfs().TryWrite(cpu_plans_.front().set, "0");
    return errc == FaultErrc::kOk || errc == FaultErrc::kInval;
}

void
ConfigScheduler::VerifyDelivery(const SubsystemActuator& plan,
                                ActuationDelivery* delivery)
{
    if (!readback_ || !delivery->write_ok) {
        return;
    }
    const SysfsReadResult result = device_->sysfs().TryRead(plan.readback);
    long long raw = 0;
    if (!result.ok() || !ParseInt64(result.value, &raw)) {
        // The write stands but cannot be checked; stay conservative and
        // report it unverified rather than guessing either way.
        ++stats_.readback_failures;
        return;
    }
    delivery->verified = true;
    delivery->delivered_level = plan.policy->LevelOfValue(raw);
    ++stats_.verified_writes;
    if (delivery->delivered_level != delivery->requested_level) {
        ++stats_.silent_clamps;
    }
}

void
ConfigScheduler::ActuateSubsystem(const SubsystemActuator& plan, int target,
                                  ActuationDelivery* delivery)
{
    const auto& candidates = plan.candidates[static_cast<size_t>(target)];
    const auto& levels = plan.levels[static_cast<size_t>(target)];
    delivery->attempted = true;
    size_t accepted = 0;
    delivery->write_ok = WriteWithFallback(plan.set, candidates, &accepted);
    // Verify against the level whose value was *accepted* — an EINVAL
    // fallback is not a clamp, the substituted value was the request.
    delivery->requested_level = delivery->write_ok ? levels[accepted] : target;
    VerifyDelivery(plan, delivery);
}

bool
ConfigScheduler::ApplyConfigNow(const SystemConfig& config)
{
    DwellDelivery delivery;
    delivery.requested_config = config;

    // The primary cluster is always actuated; the others only when the
    // config controls them, after the bus and GPU (the sysfs op order the
    // fault injector's per-op stream follows).
    ActuateSubsystem(cpu_plans_.front(), config.cpu_level, &delivery.cpu);
    if (config.controls_bandwidth()) {
        ActuateSubsystem(bw_plan_, config.bw_level, &delivery.bw);
    }
    if (config.controls_gpu()) {
        ActuateSubsystem(gpu_plan_, config.gpu_level, &delivery.gpu);
    }
    if (config.controls_little()) {
        AEO_ASSERT(cpu_plans_.size() > 1,
                   "config %s names a LITTLE level on a single-cluster device",
                   config.ToString().c_str());
        for (size_t i = 1; i < cpu_plans_.size(); ++i) {
            ActuateSubsystem(cpu_plans_[i], config.cluster_level(i),
                             &delivery.cluster(i));
        }
        if (config.placement != kPlacementDefault) {
            // Placement is a scheduler affinity, not a sysfs frequency node:
            // it cannot fail transiently, so it is applied directly.
            device_->SetThreadPlacement(
                static_cast<ThreadPlacement>(config.placement));
        }
    }

    // aeo-lint: allow(hot-path-alloc) -- cleared each cycle; capacity is
    // retained, so growth stops at the slots-per-cycle high-water mark.
    cycle_deliveries_.push_back(delivery);

    const auto subsystem_ok = [](const ActuationDelivery& d) {
        return !d.attempted || d.write_ok;
    };
    return subsystem_ok(delivery.cpu) && subsystem_ok(delivery.bw) &&
           subsystem_ok(delivery.gpu) && subsystem_ok(delivery.little);
}

void
ConfigScheduler::CancelPending()
{
    for (const EventId id : pending_) {
        device_->sim().Cancel(id);
    }
    pending_.clear();
}

// aeo: hot-path
void
ConfigScheduler::Apply(const ActuationPlan& plan)
{
    AEO_ASSERT(!plan.empty(), "empty actuation plan");

    // Cancel configuration switches still pending from the previous cycle
    // and fold that cycle's outcome into the consecutive-failure counter.
    CancelPending();
    if (cycle_open_) {
        failed_cycles_in_a_row_ =
            cycle_has_failure_ ? failed_cycles_in_a_row_ + 1 : 0;
    }
    cycle_open_ = true;
    cycle_has_failure_ = false;
    cycle_deliveries_.clear();

    // Quantize each dwell to the min-dwell grid. With at most two slots,
    // rounding the first and giving the remainder to the second preserves
    // the cycle budget; a slot shorter than half the minimum dwell merges
    // into the other.
    const double grid = min_dwell_.seconds();
    double total = 0.0;
    for (const PlannedDwell& dwell : plan) {
        total += dwell.seconds;
    }

    ActuationPlan quantized;
    if (plan.size() == 1) {
        quantized.push_back(plan.front());
    } else {
        const PlannedDwell& first = plan.front();
        const double rounded = std::round(first.seconds / grid) * grid;
        if (rounded <= 0.0) {
            quantized.push_back(PlannedDwell{plan.back().config, total});
        } else if (rounded >= total) {
            quantized.push_back(PlannedDwell{first.config, total});
        } else {
            quantized.push_back(PlannedDwell{first.config, rounded});
            quantized.push_back(
                PlannedDwell{plan.back().config, total - rounded});
        }
    }

    // Apply the first slot now; schedule the rest.
    SimTime offset = SimTime::Zero();
    for (size_t i = 0; i < quantized.size(); ++i) {
        const SystemConfig config = quantized[i].config;
        const double seconds = quantized[i].seconds;
        if (i == 0) {
            ApplyConfigNow(config);
            cycle_deliveries_.back().seconds = seconds;
        } else {
            // aeo-lint: allow(hot-path-alloc) -- cleared each cycle; capacity
            // is retained, so growth stops at the high-water mark.
            pending_.push_back(
                device_->sim().ScheduleAfter(offset, [this, config, seconds] {
                    ApplyConfigNow(config);
                    cycle_deliveries_.back().seconds = seconds;
                }));
        }
        offset += SimTime::FromSecondsF(quantized[i].seconds);
    }
}

}  // namespace aeo::platform
