#include "power/power_model.h"

#include <gtest/gtest.h>

#include "soc/nexus6.h"

namespace aeo {
namespace {

PowerInputs
BaseInputs()
{
    ClusterPowerInputs cpu;
    cpu.freq = Gigahertz(1.0);
    cpu.voltage = Volts(0.9);
    cpu.online_cores = 4;
    cpu.busy_cores = 2.0;
    PowerInputs inputs;
    inputs.clusters.push_back(cpu);
    inputs.bw_level = 0;
    inputs.mem_gbps = 0.1;
    return inputs;
}

TEST(PowerModelTest, BreakdownSumsToTotal)
{
    const PowerModel model;
    PowerInputs inputs = BaseInputs();
    inputs.app_component_mw = 300.0;
    inputs.overhead_mw = 15.0;
    const PowerBreakdown breakdown = model.Compute(inputs);
    EXPECT_NEAR(breakdown.total_mw(),
                breakdown.cpu_mw[0] + breakdown.gpu_mw + breakdown.mem_mw +
                    breakdown.base_mw + breakdown.app_component_mw +
                    breakdown.overhead_mw,
                1e-9);
    EXPECT_DOUBLE_EQ(breakdown.app_component_mw, 300.0);
    EXPECT_DOUBLE_EQ(breakdown.overhead_mw, 15.0);
}

TEST(PowerModelTest, PowerIncreasesWithFrequencyAndVoltage)
{
    const PowerModel model;
    PowerInputs low = BaseInputs();
    PowerInputs high = BaseInputs();
    high.clusters[0].freq = Gigahertz(2.6496);
    high.clusters[0].voltage = Volts(1.15);
    EXPECT_GT(model.Compute(high).cpu_mw[0], model.Compute(low).cpu_mw[0]);
}

TEST(PowerModelTest, PowerIncreasesWithBusyCores)
{
    const PowerModel model;
    PowerInputs idle = BaseInputs();
    idle.clusters[0].busy_cores = 0.0;
    PowerInputs busy = BaseInputs();
    busy.clusters[0].busy_cores = 4.0;
    EXPECT_GT(model.Compute(busy).cpu_mw[0], model.Compute(idle).cpu_mw[0]);
    // Idle cores still leak and burn a residue.
    EXPECT_GT(model.Compute(idle).cpu_mw[0], 0.0);
}

TEST(PowerModelTest, MemoryPowerScalesWithLevelAndTraffic)
{
    const PowerModel model(MakeNexus6PowerParams());
    PowerInputs a = BaseInputs();
    PowerInputs b = BaseInputs();
    b.bw_level = 4;
    const double per_level = MakeNexus6PowerParams().mem_mw_per_level;
    EXPECT_NEAR(model.Compute(b).mem_mw - model.Compute(a).mem_mw, 4 * per_level,
                1e-9);

    PowerInputs c = BaseInputs();
    c.mem_gbps = 1.1;
    EXPECT_GT(model.Compute(c).mem_mw, model.Compute(a).mem_mw);
}

TEST(PowerModelTest, BusyAboveCoreCountIsClamped)
{
    const PowerModel model;
    PowerInputs a = BaseInputs();
    a.clusters[0].busy_cores = 4.0;
    PowerInputs b = BaseInputs();
    b.clusters[0].busy_cores = 7.0;  // meters can transiently report more
    EXPECT_DOUBLE_EQ(model.Compute(a).cpu_mw[0], model.Compute(b).cpu_mw[0]);
}

TEST(PowerModelTest, TotalPowerHelperAgrees)
{
    const PowerModel model;
    const PowerInputs inputs = BaseInputs();
    EXPECT_DOUBLE_EQ(model.TotalPower(inputs).value(),
                     model.Compute(inputs).total_mw());
}

TEST(PowerModelTest, GpuRailScalesWithClockVoltageAndBusy)
{
    const PowerModel model;
    PowerInputs idle = BaseInputs();  // GPU defaults: 200 MHz, 0.8 V, idle
    PowerInputs busy = BaseInputs();
    busy.gpu_mhz = 600.0;
    busy.gpu_voltage = Volts(1.07);
    busy.gpu_busy = 1.0;
    const double idle_gpu = model.Compute(idle).gpu_mw;
    const double busy_gpu = model.Compute(busy).gpu_mw;
    // Idle GPU: leakage only (~15 mW at 0.8 V).
    EXPECT_LT(idle_gpu, 30.0);
    // Flat-out Adreno 420: ~1.5 W.
    EXPECT_GT(busy_gpu, 1000.0);
    EXPECT_LT(busy_gpu, 2200.0);
}

TEST(PowerModelDeathTest, RejectsInvalidInputs)
{
    const PowerModel model;
    PowerInputs inputs = BaseInputs();
    inputs.clusters[0].online_cores = 0;
    EXPECT_DEATH(model.Compute(inputs), "no cores online");
}

}  // namespace
}  // namespace aeo
