#include "platform/sim_platform.h"

#include <string>

#include "common/logging.h"
#include "common/strings.h"

namespace aeo::platform {

namespace {

/** Best-effort governor switch: transient errors get a few immediate
 * retries, and a write that still fails is survivable (the watchdog covers
 * persistent actuation failure), so warn instead of aborting. */
void
TrySetGovernor(Sysfs& sysfs, SysfsHandle node, const std::string& value)
{
    FaultErrc errc = FaultErrc::kOk;
    for (int attempt = 0; attempt < 3; ++attempt) {
        errc = sysfs.TryWrite(node, value);
        const bool retryable = errc == FaultErrc::kBusy ||
                               errc == FaultErrc::kIo ||
                               errc == FaultErrc::kNoEnt;
        if (!retryable) {
            break;
        }
    }
    if (errc != FaultErrc::kOk) {
        Warn("governor switch '%s' <- '%s' failed: %s", sysfs.PathOf(node).c_str(),
             value.c_str(), FaultErrcName(errc));
    }
}

}  // namespace

SimPlatform::SimPlatform(Device* device)
    : device_(device), scheduler_(device), clock_(&device->sim()),
      tick_scheduler_(&device->sim())
{
    AEO_ASSERT(device_ != nullptr, "platform needs a device");
    cap_node_ = device_->cpufreq().Open(&DvfsSysfsNames::max_freq);
    temp_node_ = device_->sysfs().Open("/sys/class/thermal/thermal_zone0/temp");
    for (size_t i = 0; i < device_->num_clusters(); ++i) {
        cpu_governor_nodes_.push_back(
            device_->cpufreq(i).Open(&DvfsSysfsNames::governor));
    }
    bw_governor_node_ = device_->devfreq().Open(&DvfsSysfsNames::governor);
    gpu_governor_node_ = device_->gpufreq().Open(&DvfsSysfsNames::governor);
}

int
SimPlatform::num_cpu_clusters() const
{
    return device_->topology().num_clusters();
}

int
SimPlatform::max_little_level() const
{
    const CpufreqPolicy* little = device_->little_cpufreq();
    return little != nullptr ? little->table().max_level() : -1;
}

int
SimPlatform::max_cpu_level() const
{
    return device_->cluster().table().max_level();
}

void
SimPlatform::SetControllerOverheadPower(double mw)
{
    device_->SetControllerOverheadPower(mw);
}

void
SimPlatform::Sync()
{
    device_->Sync();
}

void
SimPlatform::StartSampling()
{
    device_->perf().Start();
}

void
SimPlatform::StopSampling()
{
    device_->perf().Stop();
}

PerfWindow
SimPlatform::DrainWindow()
{
    const aeo::PerfWindow window = device_->perf().DrainWindow();
    return PerfWindow{window.avg_gips, window.samples};
}

double
SimPlatform::DrainAveragePowerMw()
{
    return device_->monitor().DrainWindowAveragePower().value();
}

void
SimPlatform::PinForControl(bool bandwidth, bool gpu)
{
    Sysfs& sysfs = device_->sysfs();
    // Every frequency domain goes to userspace: on big.LITTLE the controller
    // owns the LITTLE clock alongside the big one.
    for (const SysfsHandle node : cpu_governor_nodes_) {
        TrySetGovernor(sysfs, node, "userspace");
    }
    if (bandwidth) {
        TrySetGovernor(sysfs, bw_governor_node_, "userspace");
    } else {
        // CPU-only controller (§V-D): the bus stays with the default
        // governor, taking decisions in an independent, isolated manner.
        TrySetGovernor(sysfs, bw_governor_node_, "cpubw_hwmon");
    }
    if (gpu) {
        // §VII extension: GPU frequency joins the coordinated configuration.
        TrySetGovernor(sysfs, gpu_governor_node_, "userspace");
    } else {
        TrySetGovernor(sysfs, gpu_governor_node_, "msm-adreno-tz");
    }
}

void
SimPlatform::RestoreStock()
{
    Sysfs& sysfs = device_->sysfs();
    // Best effort: if even these writes fail, the device keeps whatever
    // governors it has — there is nothing further a userspace agent can do.
    for (const SysfsHandle node : cpu_governor_nodes_) {
        TrySetGovernor(sysfs, node, "interactive");
    }
    TrySetGovernor(sysfs, bw_governor_node_, "cpubw_hwmon");
    TrySetGovernor(sysfs, gpu_governor_node_, "msm-adreno-tz");
}

double
SimPlatform::ReadZoneTempC()
{
    // Absent on thermally unmodelled devices; TryRead returns ENOENT for an
    // unregistered path before consulting any fault injector.
    const SysfsReadResult result = device_->sysfs().TryRead(temp_node_);
    long long millideg = 0;
    if (!result.ok() || !ParseInt64(result.value, &millideg)) {
        return kLeakageReferenceC;
    }
    return static_cast<double>(millideg) / 1000.0;
}

int
SimPlatform::ReadCpuCapLevel()
{
    const SysfsReadResult result = device_->sysfs().TryRead(cap_node_);
    long long khz = 0;
    if (!result.ok() || !ParseInt64(result.value, &khz) || khz <= 0) {
        // Unreadable is not evidence of a clamp; assume uncapped.
        return kNoCapLevel;
    }
    return device_->cpufreq().LevelOfValue(khz);
}

}  // namespace aeo::platform
