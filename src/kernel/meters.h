/**
 * @file
 * Cumulative activity meters the kernel layer reads.
 *
 * The device model advances these whenever it integrates a segment of
 * simulated time; governors and instrumentation take snapshots and compute
 * windowed deltas — the same structure as Linux's per-CPU time accounting,
 * the bus-traffic hardware monitor behind cpubw_hwmon and the GPU busy
 * counters behind msm-adreno-tz.
 */
#ifndef AEO_KERNEL_METERS_H_
#define AEO_KERNEL_METERS_H_

#include "common/logging.h"
#include "sim/time.h"

namespace aeo {

/** Accumulates busy core-seconds, busiest-core load and wall time. */
class CpuLoadMeter {
  public:
    /**
     * Adds @p dt of wall time during which @p busy_cores cores were busy and
     * the busiest core's utilization was @p max_core_load (in [0, 1]).
     *
     * Android's interactive governor keys off the *busiest* CPU's load, not
     * the cluster average — a two-thread burst pegs two cores at 100 % and
     * must trigger the hispeed ramp even though the 4-core average is 0.5.
     */
    void
    Advance(double busy_cores, double max_core_load, SimTime dt)
    {
        AEO_ASSERT(busy_cores >= 0.0, "negative busy cores");
        AEO_ASSERT(max_core_load >= 0.0 && max_core_load <= 1.0 + 1e-9,
                   "core load %f out of [0, 1]", max_core_load);
        AEO_ASSERT(dt >= SimTime::Zero(), "negative interval");
        busy_core_seconds_ += busy_cores * dt.seconds();
        core_load_seconds_ += max_core_load * dt.seconds();
        elapsed_ += dt;
    }

    /** Total busy core-seconds since construction. */
    double busy_core_seconds() const { return busy_core_seconds_; }

    /** Time-integral of the busiest-core load, seconds. */
    double core_load_seconds() const { return core_load_seconds_; }

    /** Total wall time observed. */
    SimTime elapsed() const { return elapsed_; }

  private:
    double busy_core_seconds_ = 0.0;
    double core_load_seconds_ = 0.0;
    SimTime elapsed_;
};

/** Snapshot-and-delta helper for CpuLoadMeter. */
class CpuLoadWindow {
  public:
    explicit CpuLoadWindow(const CpuLoadMeter* meter);

    /**
     * Returns the average busy fraction per core over the window since the
     * last call (or construction) and restarts the window.
     *
     * @param num_cores Cores over which to normalize.
     * @return Load in [0, 1]; 0 if no time elapsed.
     */
    double SampleLoad(int num_cores);

    /**
     * Returns the busiest-core average load over the window since the last
     * call and restarts the window (what interactive/ondemand sample).
     */
    double SampleCoreLoad();

  private:
    const CpuLoadMeter* meter_;
    double last_busy_ = 0.0;
    double last_core_load_ = 0.0;
    SimTime last_elapsed_;
};

/** Accumulates memory-bus traffic in bytes. */
class BusTrafficMeter {
  public:
    /** Adds @p dt of wall time at @p gbps of traffic. */
    void
    Advance(double gbps, SimTime dt)
    {
        AEO_ASSERT(gbps >= 0.0, "negative traffic");
        AEO_ASSERT(dt >= SimTime::Zero(), "negative interval");
        gigabytes_ += gbps * dt.seconds();
    }

    /** Total bytes transferred (in GB, to keep magnitudes sane). */
    double gigabytes() const { return gigabytes_; }

  private:
    double gigabytes_ = 0.0;
};

/** Snapshot-and-delta helper for BusTrafficMeter. */
class BusTrafficWindow {
  public:
    explicit BusTrafficWindow(const BusTrafficMeter* meter, SimTime start);

    /**
     * Returns average traffic in MBps since the last call and restarts the
     * window.
     *
     * @param now Current simulated time.
     */
    double SampleMbps(SimTime now);

  private:
    const BusTrafficMeter* meter_;
    double last_gigabytes_ = 0.0;
    SimTime last_time_;
};

/** Accumulates GPU busy time for governor sampling. */
class GpuBusyMeter {
  public:
    /** Adds @p dt during which the GPU was @p busy (fraction in [0, 1]). */
    void
    Advance(double busy, SimTime dt)
    {
        AEO_ASSERT(busy >= 0.0 && busy <= 1.0 + 1e-9, "GPU busy %f out of [0, 1]",
                   busy);
        AEO_ASSERT(dt >= SimTime::Zero(), "negative interval");
        busy_seconds_ += busy * dt.seconds();
        elapsed_ += dt;
    }

    /** Integral of the busy fraction, seconds. */
    double busy_seconds() const { return busy_seconds_; }

    /** Total wall time observed. */
    SimTime elapsed() const { return elapsed_; }

  private:
    double busy_seconds_ = 0.0;
    SimTime elapsed_;
};

}  // namespace aeo

#endif  // AEO_KERNEL_METERS_H_
