/**
 * @file
 * Standalone per-layer probes. Each times one layer in isolation through its
 * public API, outside the timed phase (so trace.overhead_pct excludes them),
 * and returns one host-time sample per repetition.
 */
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <utility>
#include <vector>

#include "common/system_config.h"
#include "core/profile_table.h"
#include "device/device.h"

namespace perfbench {

/** ns per dispatch of Simulator::RunFor over a bare 5 kHz ScheduleEvery
 * series, one sample per repetition. */
std::vector<double> ProbeDispatchNs(int reps);

/** ns per sample of a standalone MonsoonMonitor on its own Simulator. */
std::vector<double> ProbeSampleNs(int reps);

/** Host seconds of one pinned Device::RunFor at the 5 kHz meter and at a
 * 1 Hz meter, all else equal. */
struct MeterTimings {
    std::vector<double> full_s;
    std::vector<double> slow_s;
};

/** Times @p app pinned at @p config on a device built from @p base, with
 * only DeviceConfig::monsoon changed between the two sides. */
MeterTimings ProbeMeterCost(const aeo::DeviceConfig& base,
                            const aeo::SystemConfig& config,
                            const std::string& app, int reps);

/** ms of one OfflineProfiler::MeasureConfig at runs=1 per (app, config),
 * on devices built from @p base. */
std::vector<double>
ProbePinnedRunMs(const aeo::DeviceConfig& base,
                 const std::vector<std::pair<std::string, aeo::SystemConfig>>& sample);

/** µs per EnergyOptimizer::Optimize call, replaying @p speedups over
 * @p table; one sample per batch of replays. */
std::vector<double> ProbeOptimizeUs(const aeo::ProfileTable& table,
                                    const std::vector<double>& speedups);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
