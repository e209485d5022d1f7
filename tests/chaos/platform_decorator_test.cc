/**
 * ForwardingPlatform is the base of every chaos decorator, so it must pass
 * the whole Platform interface through — the topology queries included. A
 * decorated big.LITTLE platform that reported the homogeneous defaults
 * would hide its LITTLE cluster from the controller.
 */
#include "chaos/platform_decorator.h"

#include "device/device.h"
#include "gtest/gtest.h"
#include "platform/sim_platform.h"
#include "power/power_model.h"
#include "soc/exynos5433.h"

namespace aeo::chaos {
namespace {

TEST(ForwardingPlatformTest, ForwardsTheTopologyQueries)
{
    DeviceConfig config;
    config.topology = MakeExynos5433Topology();
    config.power_params = MakeExynos5433PowerParams();
    Device device(config);
    platform::SimPlatform inner(&device);
    ForwardingPlatform decorated(&inner);

    ASSERT_EQ(inner.num_cpu_clusters(), 2);
    EXPECT_EQ(decorated.num_cpu_clusters(), inner.num_cpu_clusters());
    EXPECT_EQ(decorated.max_little_level(), inner.max_little_level());
    EXPECT_EQ(decorated.max_cpu_level(), inner.max_cpu_level());
}

}  // namespace
}  // namespace aeo::chaos
