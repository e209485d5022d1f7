#include "platform/fake_platform.h"

#include <utility>

#include "common/strings.h"

namespace aeo::platform {

void
FakeActuator::ConfigureActuation(SimTime min_dwell)
{
    min_dwell_ = min_dwell;
}

void
FakeActuator::Apply(const ActuationPlan& plan)
{
    // aeo-lint: allow(hot-path-alloc) -- test double: the recorded plan
    // log is its observable output.
    plans_.push_back(plan);
    if (consecutive_failed_applies_ > 0) {
        ++stats_.failed_ops;
    } else {
        ++stats_.writes;
    }
}

void
FakeActuator::ResetFailureTracking()
{
    ++reset_count_;
    consecutive_failed_applies_ = 0;
}

bool
FakeActuator::ProbeActuationPath()
{
    ++probe_count_;
    ++stats_.probes;
    if (probe_results_.empty()) {
        return true;
    }
    const bool healthy = probe_results_.front();
    probe_results_.pop_front();
    return healthy;
}

void
FakeActuator::ScriptDeliveries(std::vector<DwellDelivery> deliveries)
{
    deliveries_ = std::move(deliveries);
}

PerfWindow
FakePlatform::DrainWindow()
{
    if (perf_windows_.empty()) {
        return PerfWindow{0.0, 0};
    }
    const PerfWindow window = perf_windows_.front();
    perf_windows_.pop_front();
    return window;
}

double
FakePlatform::DrainAveragePowerMw()
{
    if (power_windows_.empty()) {
        return 0.0;
    }
    const double mw = power_windows_.front();
    power_windows_.pop_front();
    return mw;
}

void
FakePlatform::PinForControl(bool bandwidth, bool gpu)
{
    // aeo-lint: allow(hot-path-alloc) -- test double: the governor log
    // is its observable output.
    governor_log_.push_back(StrFormat("pin(bw=%d,gpu=%d)", bandwidth ? 1 : 0,
                                      gpu ? 1 : 0));
}

}  // namespace aeo::platform
