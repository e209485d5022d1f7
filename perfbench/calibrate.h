/**
 * @file
 * Host-speed calibration. A shared VM can change speed by up to ~1.9× over
 * minutes with no steal time reported: on a 4-vCPU 2.0 GHz Xeon VM a bare
 * 5 kHz dispatch went from 10 to 18 ns, and a nexus6_eval pass from 0.37 to
 * 0.70 s, within one series of runs. Host times in the result line are therefore
 * stated at a fixed reference speed: each raw time t is reported as
 * t · kReferenceCalibrationS / c, where c is the mean time of a fixed compute
 * kernel timed on every worker at once, right before and right after the
 * measurement. The kernel runs on all workers because the passes do: a VM
 * that gives the process fewer effective cores slows both alike. The kernel
 * is this directory's own code, so a change to the simulator moves t and
 * not c. Set-up times use a kernel of their own, timed before and after the
 * set-up repetitions. The report prints the raw times too.
 */
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

/** Kernel time of the reference host, seconds: about its median on a
 * 4-vCPU 2.0 GHz Xeon VM, so reported times stay close to raw ones there. */
inline constexpr double kReferenceCalibrationS = 0.007;

/** Host seconds the calibration kernel takes when @p threads copies run at
 * once: the mean over the copies, fastest of three tries, so a one-off
 * preemption is not mistaken for a slow host. */
double CalibrationSeconds(int threads);

/** Set-up kernel time of the reference host, seconds (same VM). */
inline constexpr double kReferenceSetUpCalibrationS = 0.003;

/**
 * Host seconds of the kernel that calibrates set-up times, single-threaded,
 * fastest of three tries. Set-up mostly builds devices: many small
 * allocations keyed by sysfs-like strings. A shared host slows that far more
 * than the heap kernel. On the VM above, one nexus6_eval set-up went from 63
 * to 104 µs while the heap kernel slowed by 26%; this kernel, ten rounds of
 * building and tearing down a 1000-entry map of such strings to small
 * vectors, slowed by 41%.
 */
double SetUpCalibrationSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
