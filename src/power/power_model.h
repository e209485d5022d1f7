/**
 * @file
 * The whole-device power model.
 *
 * The paper measures the *entire device* with a Monsoon power monitor
 * (§III-A) — the controller never sees a per-rail breakdown and relies on
 * feedback robustness to tolerate that (§IV-B). We therefore model total
 * device power as:
 *
 *   P = P_base(screen @ lowest brightness, WiFi on, rest-of-device)
 *     + Σ_cores [ c_dyn · V(f)² · f · busy + idle residue ] + c_leak · V(f) · online
 *     + P_mem(bandwidth level) + c_traffic · actual GB/s
 *     + P_app_components (GPU render, HW decoder, camera, radio bursts)
 *     + P_overheads (perf tool, controller computation, DVFS transitions)
 *
 * Constants are calibrated against the paper's Table I anchors
 * (see MakeNexus6PowerParams and tests/soc/nexus6_calibration_test.cc).
 */
#ifndef AEO_POWER_POWER_MODEL_H_
#define AEO_POWER_POWER_MODEL_H_

#include "common/static_vector.h"
#include "common/system_config.h"
#include "common/units.h"

namespace aeo {

/** Tunable coefficients of the device power model. */
struct PowerModelParams {
    /** Screen (lowest brightness) + WiFi idle + rest-of-device, mW. */
    double base_mw = 626.0;
    /** Dynamic CPU coefficient, mW per (GHz · V² · busy-core). */
    double cpu_dyn_mw_per_ghz_v2 = 800.0;
    /** Fraction of dynamic power burned by an idle-but-clocked core. */
    double cpu_idle_residue = 0.06;
    /**
     * Leakage per online core, mW per V³. Sub-threshold leakage grows
     * super-linearly with the rail voltage, which is what makes *holding* a
     * high frequency expensive even when cores idle — the waste the paper's
     * Figs. 4(f)/1 expose in the interactive governor.
     */
    double cpu_leak_mw_per_v3 = 110.0;
    /** Memory controller + DRAM background power at the lowest level, mW. */
    double mem_static_mw = 120.0;
    /** Incremental bus power per bandwidth level step, mW. */
    double mem_mw_per_level = 29.6;
    /** Traffic-proportional DRAM activity power, mW per GB/s. */
    double mem_mw_per_gbps = 60.0;
    /** GPU dynamic coefficient, mW per (MHz · V² · busy). */
    double gpu_dyn_mw_per_mhz_v2 = 2.2;
    /** GPU leakage, mW per V³ (single rail). */
    double gpu_leak_mw_per_v3 = 30.0;
    /**
     * Relative growth of CPU/GPU leakage per °C above the 25 °C calibration
     * point (sub-threshold leakage rises steeply with die temperature).
     * Zero — the default — reproduces the temperature-independent model the
     * profile tables were calibrated against; thermal experiments set it to
     * make the (speedup, power) surface drift as the package heats, the
     * effect the online drift detector corrects for.
     */
    double leak_temp_coeff_per_c = 0.0;
};

/** Die temperature at which the leakage coefficients were calibrated, °C. */
inline constexpr double kLeakageReferenceC = 25.0;

/** One CPU cluster's operating state fed to the model. */
struct ClusterPowerInputs {
    Gigahertz freq;
    Volts voltage;
    int online_cores = 4;
    /** Busy core-seconds per second (foreground + background), 0..cores. */
    double busy_cores = 0.0;
    /** Silicon power scales (ClusterSpec::*_power_scale). Exactly 1.0 on
     * the reference cluster — an IEEE-exact no-op. */
    double dyn_scale = 1.0;
    double leak_scale = 1.0;
};

/** Instantaneous operating state fed to the model. */
struct PowerInputs {
    /** One entry per CPU cluster, in topology order (primary first). */
    StaticVector<ClusterPowerInputs, kMaxCpuClusters> clusters;
    /** Current 0-based bandwidth level. */
    int bw_level = 0;
    /** Actual bus traffic, GB/s. */
    double mem_gbps = 0.0;
    /** App-specific component power (decoder, camera, radio), mW. */
    double app_component_mw = 0.0;
    /** GPU clock, MHz. */
    double gpu_mhz = 200.0;
    /** GPU rail voltage. */
    Volts gpu_voltage{0.80};
    /** GPU busy fraction in [0, 1]. */
    double gpu_busy = 0.0;
    /** Instrumentation/controller overhead power, mW. */
    double overhead_mw = 0.0;
    /** Die temperature, °C (scales leakage when the model enables it). */
    double temp_c = kLeakageReferenceC;
};

/** Per-rail decomposition of device power. */
struct PowerBreakdown {
    /** One CPU rail per cluster, in topology order (primary first). */
    StaticVector<double, kMaxCpuClusters> cpu_mw;
    double gpu_mw = 0.0;
    double mem_mw = 0.0;
    double base_mw = 0.0;
    double app_component_mw = 0.0;
    double overhead_mw = 0.0;

    /** Whole-device power. */
    double
    total_mw() const
    {
        double cpu = 0.0;
        for (const double rail : cpu_mw) {
            cpu += rail;
        }
        return cpu + gpu_mw + mem_mw + base_mw + app_component_mw + overhead_mw;
    }
};

/** Evaluates device power from operating state. Stateless and copyable. */
class PowerModel {
  public:
    explicit PowerModel(PowerModelParams params = {});

    /** Computes the per-rail power breakdown for the given state. */
    PowerBreakdown Compute(const PowerInputs& inputs) const;

    /** Convenience: total device power. */
    Milliwatts TotalPower(const PowerInputs& inputs) const;

    /**
     * One CPU cluster's rail power: dynamic + leakage, scaled by the
     * cluster's silicon coefficients. @p leak_temp_scale is the
     * temperature-dependent leakage multiplier (1.0 at the calibration
     * temperature). The optimizer prices per-cluster energy with this.
     */
    double ClusterCpuPower(Gigahertz freq, Volts voltage, int online_cores,
                           double busy_cores, double dyn_scale,
                           double leak_scale, double leak_temp_scale) const;

    const PowerModelParams& params() const { return params_; }

  private:
    PowerModelParams params_;
};

/** Power coefficients calibrated for the Nexus 6 against Table I. */
PowerModelParams MakeNexus6PowerParams();

/**
 * Power coefficients for the Exynos 5433-style big.LITTLE preset. The
 * reference cluster is the A57; the A53 rail is priced through the
 * topology's dyn/leak power scales (soc/exynos5433.h).
 */
PowerModelParams MakeExynos5433PowerParams();

}  // namespace aeo

#endif  // AEO_POWER_POWER_MODEL_H_
