#include "power/power_model.h"

#include <algorithm>

#include "common/logging.h"

namespace aeo {

PowerModel::PowerModel(PowerModelParams params) : params_(params)
{
    AEO_ASSERT(params_.base_mw >= 0.0, "negative base power");
    AEO_ASSERT(params_.cpu_dyn_mw_per_ghz_v2 > 0.0, "dynamic coefficient must be positive");
    AEO_ASSERT(params_.cpu_idle_residue >= 0.0 && params_.cpu_idle_residue < 1.0,
               "idle residue %f out of [0, 1)", params_.cpu_idle_residue);
}

double
PowerModel::ClusterCpuPower(Gigahertz freq, Volts voltage, int online_cores,
                            double busy_cores, double dyn_scale,
                            double leak_scale, double leak_temp_scale) const
{
    const double v = voltage.value();
    const double f = freq.value();
    const double cores = static_cast<double>(online_cores);
    const double busy = std::min(busy_cores, cores);
    const double idle = cores - busy;
    const double dyn_unit = params_.cpu_dyn_mw_per_ghz_v2 * dyn_scale * f * v * v;
    return dyn_unit * (busy + params_.cpu_idle_residue * idle) +
           params_.cpu_leak_mw_per_v3 * leak_scale * v * v * v * cores *
               leak_temp_scale;
}

PowerBreakdown
PowerModel::Compute(const PowerInputs& inputs) const
{
    AEO_ASSERT(inputs.bw_level >= 0, "negative bandwidth level");

    PowerBreakdown out;

    // Leakage scales with die temperature when the coefficient is enabled;
    // the factor never drops below zero for (unphysical) sub-ambient dies.
    const double leak_scale = std::max(
        0.0, 1.0 + params_.leak_temp_coeff_per_c * (inputs.temp_c - kLeakageReferenceC));

    int online_cores = 0;
    for (const ClusterPowerInputs& cluster : inputs.clusters) {
        AEO_ASSERT(cluster.online_cores >= 0, "negative online cores");
        AEO_ASSERT(cluster.busy_cores >= 0.0, "negative busy cores");
        online_cores += cluster.online_cores;
        out.cpu_mw.push_back(ClusterCpuPower(
            cluster.freq, cluster.voltage, cluster.online_cores, cluster.busy_cores,
            cluster.dyn_scale, cluster.leak_scale, leak_scale));
    }
    AEO_ASSERT(online_cores >= 1, "no cores online");

    const double gv = inputs.gpu_voltage.value();
    out.gpu_mw = params_.gpu_dyn_mw_per_mhz_v2 * inputs.gpu_mhz * gv * gv *
                     inputs.gpu_busy +
                 params_.gpu_leak_mw_per_v3 * gv * gv * gv * leak_scale;

    out.mem_mw = params_.mem_static_mw +
                 params_.mem_mw_per_level * static_cast<double>(inputs.bw_level) +
                 params_.mem_mw_per_gbps * inputs.mem_gbps;

    out.base_mw = params_.base_mw;
    out.app_component_mw = inputs.app_component_mw;
    out.overhead_mw = inputs.overhead_mw;
    return out;
}

Milliwatts
PowerModel::TotalPower(const PowerInputs& inputs) const
{
    return Milliwatts(Compute(inputs).total_mw());
}

PowerModelParams
MakeNexus6PowerParams()
{
    // Calibrated against the paper's Table I (AngryBirds):
    //   (0.3 GHz, 762 MBps)  → ~1623 mW
    //   (0.3 GHz, 3051 MBps) → ~1742 mW   (≈29.6 mW per bandwidth level)
    //   (0.8832 GHz, 762)    → ~2219 mW at speedup 1.837
    // See tests/soc/nexus6_calibration_test.cc for the locked anchors.
    PowerModelParams params;
    params.base_mw = 472.0;  // the idle GPU rail carries ~15 mW of leakage
    params.cpu_dyn_mw_per_ghz_v2 = 953.0;
    params.cpu_idle_residue = 0.14;
    params.cpu_leak_mw_per_v3 = 110.0;
    params.mem_static_mw = 120.0;
    params.mem_mw_per_level = 29.6;
    params.mem_mw_per_gbps = 60.0;
    return params;
}

PowerModelParams
MakeExynos5433PowerParams()
{
    // The A57 cluster is the reference rail: a 20nm out-of-order core is
    // hungrier per GHz·V² than the Krait and leaks more at the top of its
    // wider voltage range. LPDDR4 at up to 13.2 GBps moves the bus
    // coefficients accordingly. The A53 rail is priced via the topology's
    // dyn/leak power scales, not separate coefficients.
    PowerModelParams params;
    params.base_mw = 455.0;
    params.cpu_dyn_mw_per_ghz_v2 = 1180.0;
    params.cpu_idle_residue = 0.10;
    params.cpu_leak_mw_per_v3 = 160.0;
    params.mem_static_mw = 135.0;
    params.mem_mw_per_level = 34.0;
    params.mem_mw_per_gbps = 48.0;
    return params;
}

}  // namespace aeo
