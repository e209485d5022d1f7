#include "chaos/campaign.h"

#include <algorithm>
#include <utility>

#include "apps/app_registry.h"
#include "chaos/timing_fault.h"
#include "common/logging.h"
#include "common/strings.h"
#include "device/device.h"
#include "kernel/msm_thermal.h"
#include "kernel/perf_tool.h"
#include "power/monsoon.h"
#include "platform/sim_platform.h"
#include "sim/simulator.h"
#include "soc/thermal_model.h"

namespace aeo::chaos {

namespace {

/** What installing one ScenarioAction means at the injector level. */
struct ActionRules {
    std::vector<FaultRule> rules;
    /** Prefixes whose latched state the action's end heals. */
    std::vector<std::string> repair_prefixes;
};

ActionRules
RulesFor(FaultClass cls, double intensity)
{
    ActionRules out;
    switch (cls) {
    case FaultClass::kActuationBusy: {
        FaultRule busy;
        busy.path_prefix = kCpufreqSysfsRoot;
        busy.fail_probability = 0.6 * intensity;
        busy.errc = FaultErrc::kBusy;
        busy.latency_spike_probability = 0.3 * intensity;
        out.rules.push_back(busy);
        busy.path_prefix = kDevfreqSysfsRoot;
        out.rules.push_back(busy);
        break;
    }
    case FaultClass::kActuationSticky: {
        FaultRule sticky;
        sticky.path_prefix =
            std::string(kCpufreqSysfsRoot) + "/scaling_setspeed";
        sticky.fail_probability = 0.5 * intensity;
        sticky.errc = FaultErrc::kIo;
        sticky.duration = FaultDuration::kSticky;
        out.repair_prefixes.push_back(sticky.path_prefix);
        out.rules.push_back(std::move(sticky));
        break;
    }
    case FaultClass::kSilentClamp: {
        FaultRule clamp;
        clamp.path_prefix = kCpufreqSysfsRoot;
        clamp.silent_clamp_probability = 0.7 * intensity;
        clamp.silent_clamp_factor = 0.5;
        out.rules.push_back(std::move(clamp));
        break;
    }
    case FaultClass::kPmuDrop: {
        FaultRule pmu;
        pmu.path_prefix = kPmuFaultPath;
        pmu.fail_probability = 0.8 * intensity;
        pmu.errc = FaultErrc::kIo;
        pmu.stale_probability = 0.4 * intensity;
        out.rules.push_back(std::move(pmu));
        break;
    }
    case FaultClass::kMeterDrop: {
        FaultRule meter;
        meter.path_prefix = kMonsoonFaultPath;
        meter.fail_probability = 0.8 * intensity;
        meter.errc = FaultErrc::kIo;
        out.rules.push_back(std::move(meter));
        break;
    }
    case FaultClass::kPathDisappear: {
        FaultRule gone;
        gone.path_prefix = kDevfreqSysfsRoot;
        gone.disappear_probability = 0.2 * intensity;
        gone.max_triggers = 1;
        out.repair_prefixes.push_back(gone.path_prefix);
        out.rules.push_back(std::move(gone));
        break;
    }
    case FaultClass::kThermalCap:
        // Handled by a temp_threshold write, not injector rules.
        break;
    case FaultClass::kTickJitterStorm:
    case FaultClass::kTickOverrun:
    case FaultClass::kSuspendResume:
    case FaultClass::kClockSkew:
        // Timing classes act on the platform time seam, not the injector
        // (see timing_fault.h); the campaign wires them separately.
        break;
    }
    return out;
}

JsonValue
CycleRecordToJson(const ControlCycleRecord& record)
{
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("time_s", record.time_s);
    entry.Set("measured_gips", record.measured_gips);
    entry.Set("required_speedup", record.required_speedup);
    entry.Set("base_speed_estimate", record.base_speed_estimate);
    entry.Set("temp_c", record.temp_c);
    entry.Set("cpu_cap_level", record.cpu_cap_level);
    entry.Set("degraded", record.degraded);
    entry.Set("safe_mode", record.safe_mode);
    entry.Set("measured_power_mw", record.measured_power_mw.value());
    entry.Set("perf_samples", record.perf_samples);
    entry.Set("tick_kind", platform::TickKindName(record.tick_kind));
    entry.Set("tick_lateness_s", record.tick_lateness_s);
    entry.Set("epochs_skipped", record.epochs_skipped);
    entry.Set("stale_guard", record.stale_guard);
    return entry;
}

}  // namespace

JsonValue
CampaignReportToJson(const CampaignReport& report)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("seed", SeedToJson(report.seed));
    doc.Set("cycles", report.cycles);
    doc.Set("fallback", report.fallback);
    doc.Set("degraded_cycles", report.degraded_cycles);
    doc.Set("safe_mode_cycles", report.safe_mode_cycles);
    doc.Set("reengage_count", report.reengage_count);
    doc.Set("fault_events", report.fault_events);
    doc.Set("energy_j", report.energy_j);
    doc.Set("avg_gips", report.avg_gips);
    doc.Set("jitter_ticks", report.jitter_ticks);
    doc.Set("missed_ticks", report.missed_ticks);
    doc.Set("suspend_gap_ticks", report.suspend_gap_ticks);
    doc.Set("stale_guard_cycles", report.stale_guard_cycles);
    JsonValue verdicts = JsonValue::MakeArray();
    for (const MonitorVerdict& verdict : report.verdicts) {
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("monitor", verdict.monitor);
        entry.Set("violations", verdict.violations);
        entry.Set("first_violation_cycle", verdict.first_violation_cycle);
        entry.Set("first_violation_time_s", verdict.first_violation_time_s);
        entry.Set("first_message", verdict.first_message);
        verdicts.Append(std::move(entry));
    }
    doc.Set("verdicts", std::move(verdicts));
    doc.Set("total_violations", report.total_violations);
    doc.Set("first_violation_cycle", report.first_violation_cycle);
    doc.Set("first_violation_monitor", report.first_violation_monitor);
    JsonValue tail = JsonValue::MakeArray();
    for (const ControlCycleRecord& record : report.cycle_tail) {
        tail.Append(CycleRecordToJson(record));
    }
    doc.Set("cycle_tail", std::move(tail));
    return doc;
}

CampaignReport
RunCampaign(const CampaignOptions& options, const ChaosScenario& scenario)
{
    AEO_ASSERT(options.table != nullptr, "campaign needs a profile table");
    AEO_ASSERT(options.target_gips > 0.0, "campaign needs a target");

    // The device carries one benign sentinel rule so the fault injector
    // exists for runtime rule installation; it matches no real path and
    // draws nothing, keeping the action-free campaign bit-identical to a
    // fault-free run. The meter stays on the sample clock regardless: it
    // takes its decisions when the injector's sync hook catches it up, and
    // while no meter-drop action is active each catch-up block is one clean
    // decision that only counts its reads.
    DeviceConfig device_config;
    device_config.seed = options.device_seed != 0
                             ? options.device_seed
                             : scenario.seed ^ 0x5eedc0de5eedc0deull;
    FaultRule sentinel;
    sentinel.path_prefix = "/chaos/sentinel";
    device_config.fault_rules = {sentinel};
    Device device(device_config);
    device.LaunchApp(MakeAppSpecByName(options.app));
    if (options.enable_thermal) {
        device.EnableThermal(ThermalParams{}, options.msm_thermal);
    }

    platform::SimPlatform sim_platform(&device);
    std::unique_ptr<platform::Platform> decorated;
    platform::Platform* plat = &sim_platform;
    if (options.decorate_platform) {
        decorated = options.decorate_platform(&sim_platform);
        AEO_ASSERT(decorated != nullptr, "platform decorator returned null");
        plat = decorated.get();
    }

    ControllerConfig controller_config = options.controller;
    controller_config.target_gips = options.target_gips;

    // Timing-class actions wrap the platform's time seam, outermost so a
    // planted-bug fixture decorator underneath still sees perturbed time.
    TimingFaultPlan timing_plan = ExtractTimingPlan(
        scenario, controller_config.control_cycle.seconds());
    std::unique_ptr<TimingFaultPlatform> timing_platform;
    if (!timing_plan.empty()) {
        timing_platform = std::make_unique<TimingFaultPlatform>(
            plat, std::move(timing_plan));
        plat = timing_platform.get();
    }

    OnlineController controller(plat, *options.table, controller_config);

    // --- Monitors on the cycle-observer seam ------------------------------
    std::vector<std::unique_ptr<InvariantMonitor>> monitors =
        MakeDefaultMonitors();
    uint64_t cycle_index = 0;
    controller.AddCycleObserver(
        [&](const ControlCycleRecord& record,
            const std::vector<platform::DwellDelivery>& deliveries) {
            CycleContext context;
            context.cycle_index = cycle_index++;
            context.record = &record;
            context.deliveries = &deliveries;
            context.state = controller.state();
            context.illegal_dispatches =
                controller.machine().illegal_dispatch_count();
            context.fallback_engaged = controller.fallback_engaged();
            context.target_gips = options.target_gips;
            context.max_cpu_level = plat->max_cpu_level();
            context.control_period_s =
                controller_config.control_cycle.seconds();
            // Ground-truth cap, read from the driver itself rather than
            // through the (decoratable, possibly lying) platform seam. Only
            // meaningful when the controller reads caps at all.
            if (controller_config.readback_verification &&
                device.msm_thermal() != nullptr) {
                context.true_cpu_cap_level = device.msm_thermal()->cap_level();
            }
            for (const auto& monitor : monitors) {
                monitor->OnCycle(context);
            }
        });

    // --- Scenario actions as timed events ---------------------------------
    FaultInjector* injector = device.fault_injector();
    AEO_ASSERT(injector != nullptr, "sentinel rule must attach the injector");
    const std::string threshold_path =
        std::string(kMsmThermalSysfsRoot) + "/temp_threshold";
    // Rule handles installed per action, consumed by the removal event.
    // shared_ptr: both scheduled closures outlive this frame.
    for (const ScenarioAction& action : scenario.actions) {
        if (IsTimingClass(action.cls)) {
            continue;  // Installed through the TimingFaultPlatform above.
        }
        if (action.cls == FaultClass::kThermalCap) {
            if (!options.enable_thermal) {
                continue;
            }
            auto saved = std::make_shared<std::string>();
            device.sim().ScheduleAt(
                SimTime::FromSecondsF(action.start_s), [&device, saved,
                                                       threshold_path,
                                                       action] {
                    const SysfsReadResult original =
                        device.sysfs().TryRead(threshold_path);
                    *saved = original.ok() ? Trim(original.value) : "";
                    // Drop the trip point below the idle die temperature so
                    // the driver stages a genuine frequency cap.
                    const int threshold_c =
                        static_cast<int>(40.0 - 20.0 * action.intensity);
                    device.sysfs().TryWrite(threshold_path,
                                            StrFormat("%d", threshold_c));
                });
            device.sim().ScheduleAt(
                SimTime::FromSecondsF(action.start_s + action.duration_s),
                [&device, saved, threshold_path] {
                    if (!saved->empty()) {
                        device.sysfs().TryWrite(threshold_path, *saved);
                    }
                });
            continue;
        }
        ActionRules rules = RulesFor(action.cls, action.intensity);
        if (rules.rules.empty()) {
            continue;
        }
        auto handles = std::make_shared<std::vector<int>>();
        auto shared_rules =
            std::make_shared<std::vector<FaultRule>>(std::move(rules.rules));
        auto repair = std::make_shared<std::vector<std::string>>(
            std::move(rules.repair_prefixes));
        device.sim().ScheduleAt(SimTime::FromSecondsF(action.start_s),
                                [injector, handles, shared_rules] {
                                    for (const FaultRule& rule :
                                         *shared_rules) {
                                        handles->push_back(
                                            injector->AddRule(rule));
                                    }
                                });
        device.sim().ScheduleAt(
            SimTime::FromSecondsF(action.start_s + action.duration_s),
            [injector, handles, repair] {
                for (const int handle : *handles) {
                    injector->RemoveRule(handle);
                }
                for (const std::string& prefix : *repair) {
                    injector->RepairPrefix(prefix);
                }
            });
    }

    // --- Run ---------------------------------------------------------------
    controller.Start();
    device.RunFor(SimTime::FromSecondsF(options.spec.duration_s));
    controller.Stop();

    FinishContext finish;
    finish.cycles = controller.cycle_count();
    finish.fallback_engaged = controller.fallback_engaged();
    finish.reengage_enabled = controller_config.reengage;
    finish.probes = controller.actuator().stats().probes;
    finish.reengage_count = controller.reengage_count();
    finish.elapsed_s = options.spec.duration_s;
    finish.probe_period_s = controller_config.control_cycle.seconds() *
                            controller_config.reengage_probe_cycles;
    finish.fallback_time_s = controller.last_fallback_time_s();
    for (const auto& monitor : monitors) {
        monitor->OnFinish(finish);
    }

    // --- Report ------------------------------------------------------------
    const RunResult result = device.CollectResult("chaos");
    CampaignReport report;
    report.seed = scenario.seed;
    report.cycles = controller.cycle_count();
    report.fallback = controller.fallback_engaged();
    report.degraded_cycles = controller.degraded_cycle_count();
    report.safe_mode_cycles = controller.safe_mode_cycle_count();
    report.reengage_count = controller.reengage_count();
    report.fault_events = injector->trace().size();
    report.energy_j = result.energy_j;
    report.avg_gips = result.avg_gips;
    report.jitter_ticks =
        static_cast<uint64_t>(controller.deadline_stats().jitter);
    report.missed_ticks =
        static_cast<uint64_t>(controller.deadline_stats().missed);
    report.suspend_gap_ticks =
        static_cast<uint64_t>(controller.deadline_stats().suspend_gaps);
    report.stale_guard_cycles = controller.stale_guard_cycle_count();
    for (const auto& monitor : monitors) {
        MonitorVerdict verdict;
        verdict.monitor = monitor->name();
        verdict.violations = monitor->violations().size();
        verdict.first_violation_cycle = monitor->first_violation_cycle();
        if (!monitor->violations().empty()) {
            verdict.first_violation_time_s =
                monitor->violations().front().time_s;
            verdict.first_message = monitor->violations().front().message;
        }
        report.total_violations += verdict.violations;
        if (verdict.first_violation_cycle >= 0 &&
            (report.first_violation_cycle < 0 ||
             verdict.first_violation_cycle < report.first_violation_cycle)) {
            report.first_violation_cycle = verdict.first_violation_cycle;
            report.first_violation_monitor = verdict.monitor;
        }
        report.verdicts.push_back(std::move(verdict));
    }
    const std::vector<ControlCycleRecord>& history = controller.history();
    const size_t tail = std::min(kCampaignHistoryTail, history.size());
    report.cycle_tail.assign(history.end() - static_cast<long>(tail),
                             history.end());
    return report;
}

}  // namespace aeo::chaos
