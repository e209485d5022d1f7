/**
 * @file
 * The production Platform implementation over the simulated Nexus 6: all
 * sysfs access the control loop needs — governor switches, perf/power
 * window drains, the thermal zone and scaling_max_freq reads, and the
 * ConfigScheduler actuation path — lives behind this one class. The
 * interned SysfsHandles previously opened by OnlineController are opened
 * here, once, at construction.
 */
#ifndef AEO_PLATFORM_SIM_PLATFORM_H_
#define AEO_PLATFORM_SIM_PLATFORM_H_

#include <vector>

#include "device/device.h"
#include "platform/config_scheduler.h"
#include "platform/platform.h"
#include "platform/sim_clock.h"

namespace aeo::platform {

/** Platform over the simulated device (the paper's Nexus 6). */
class SimPlatform final : public Platform,
                          public PerfReader,
                          public GovernorControl,
                          public Thermals {
  public:
    /** @param device The plant; must outlive the platform. */
    explicit SimPlatform(Device* device);

    // --- Platform ---------------------------------------------------------
    Clock& clock() override { return clock_; }
    TickScheduler& ticks() override { return tick_scheduler_; }
    PerfReader& perf() override { return *this; }
    Actuator& actuator() override { return scheduler_; }
    GovernorControl& governors() override { return *this; }
    Thermals& thermals() override { return *this; }
    int max_cpu_level() const override;
    int num_cpu_clusters() const override;
    int max_little_level() const override;
    void SetControllerOverheadPower(double mw) override;
    void Sync() override;

    // --- PerfReader -------------------------------------------------------
    void StartSampling() override;
    void StopSampling() override;
    PerfWindow DrainWindow() override;
    double DrainAveragePowerMw() override;

    // --- GovernorControl --------------------------------------------------
    void PinForControl(bool bandwidth, bool gpu) override;
    void RestoreStock() override;

    // --- Thermals ---------------------------------------------------------
    double ReadZoneTempC() override;
    int ReadCpuCapLevel() override;

    /** The underlying actuator (health counters, for tests and benches). */
    const ConfigScheduler& scheduler() const { return scheduler_; }

  private:
    Device* device_;
    ConfigScheduler scheduler_;
    SimClock clock_;
    SimTickScheduler tick_scheduler_;
    /** Interned sysfs nodes for the per-cycle reads and governor switches
     * (opened once at construction; no path strings built while running). */
    SysfsHandle cap_node_;
    SysfsHandle temp_node_;
    /** One governor file per CPU cluster, in topology order. */
    std::vector<SysfsHandle> cpu_governor_nodes_;
    SysfsHandle bw_governor_node_;
    SysfsHandle gpu_governor_node_;
};

}  // namespace aeo::platform

#endif  // AEO_PLATFORM_SIM_PLATFORM_H_
