#include "kernel/meters.h"

#include "common/logging.h"

namespace aeo {

CpuLoadWindow::CpuLoadWindow(const CpuLoadMeter* meter) : meter_(meter)
{
    AEO_ASSERT(meter_ != nullptr, "null meter");
    last_busy_ = meter_->busy_core_seconds();
    last_core_load_ = meter_->core_load_seconds();
    last_elapsed_ = meter_->elapsed();
}

double
CpuLoadWindow::SampleLoad(int num_cores)
{
    AEO_ASSERT(num_cores >= 1, "need at least one core");
    const double busy = meter_->busy_core_seconds();
    const SimTime elapsed = meter_->elapsed();
    const double dt = (elapsed - last_elapsed_).seconds();
    const double delta_busy = busy - last_busy_;
    last_busy_ = busy;
    last_core_load_ = meter_->core_load_seconds();
    last_elapsed_ = elapsed;
    if (dt <= 0.0) {
        return 0.0;
    }
    const double load = delta_busy / (dt * static_cast<double>(num_cores));
    return load > 1.0 ? 1.0 : load;
}

double
CpuLoadWindow::SampleCoreLoad()
{
    const double core_load = meter_->core_load_seconds();
    const SimTime elapsed = meter_->elapsed();
    const double dt = (elapsed - last_elapsed_).seconds();
    const double delta = core_load - last_core_load_;
    last_busy_ = meter_->busy_core_seconds();
    last_core_load_ = core_load;
    last_elapsed_ = elapsed;
    if (dt <= 0.0) {
        return 0.0;
    }
    const double load = delta / dt;
    return load > 1.0 ? 1.0 : load;
}

BusTrafficWindow::BusTrafficWindow(const BusTrafficMeter* meter, SimTime start)
    : meter_(meter), last_time_(start)
{
    AEO_ASSERT(meter_ != nullptr, "null meter");
    last_gigabytes_ = meter_->gigabytes();
}

double
BusTrafficWindow::SampleMbps(SimTime now)
{
    const double gb = meter_->gigabytes();
    const double dt = (now - last_time_).seconds();
    const double delta_gb = gb - last_gigabytes_;
    last_gigabytes_ = gb;
    last_time_ = now;
    if (dt <= 0.0) {
        return 0.0;
    }
    return delta_gb * 1000.0 / dt;
}

}  // namespace aeo
