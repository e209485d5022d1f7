#include "soc/gpu_domain.h"

#include <gtest/gtest.h>

namespace aeo {
namespace {

TEST(GpuDomainTest, Adreno420Table)
{
    const GpuDomain gpu = MakeAdreno420();
    ASSERT_EQ(gpu.num_levels(), kAdreno420Levels);
    EXPECT_DOUBLE_EQ(gpu.MhzAt(0), 200.0);
    EXPECT_DOUBLE_EQ(gpu.MhzAt(4), 600.0);
    for (int level = 1; level < gpu.num_levels(); ++level) {
        EXPECT_GT(gpu.MhzAt(level), gpu.MhzAt(level - 1));
        EXPECT_GE(gpu.VoltageAt(level).value(), gpu.VoltageAt(level - 1).value());
    }
}

TEST(GpuDomainTest, CapacityIsFrequencyProportional)
{
    const GpuDomain gpu = MakeAdreno420();
    EXPECT_DOUBLE_EQ(gpu.CapacityAt(0), 200.0);
    EXPECT_DOUBLE_EQ(gpu.CapacityAt(4), 600.0);
}

TEST(GpuDomainTest, LevelLookups)
{
    const GpuDomain gpu = MakeAdreno420();
    EXPECT_EQ(gpu.ClosestLevel(310.0), 1);
    EXPECT_EQ(gpu.ClosestLevel(900.0), 4);
    EXPECT_EQ(gpu.LevelAtOrAbove(390.0), 3);  // 389 < 390 → 500
    EXPECT_EQ(gpu.LevelAtOrAbove(389.0), 2);
    EXPECT_EQ(gpu.LevelAtOrAbove(9999.0), 4);
}

TEST(GpuDomainTest, TransitionsCountAndListenersFire)
{
    GpuDomain gpu = MakeAdreno420();
    int pre = 0;
    int post = 0;
    gpu.SetPreChangeListener([&] { ++pre; });
    gpu.SetPostChangeListener([&] { ++post; });
    gpu.SetLevel(3);
    gpu.SetLevel(3);  // no-op
    gpu.SetLevel(1);
    EXPECT_EQ(gpu.transition_count(), 2u);
    EXPECT_EQ(pre, 2);
    EXPECT_EQ(post, 2);
}

TEST(GpuDomainDeathTest, RejectsBadLevel)
{
    GpuDomain gpu = MakeAdreno420();
    EXPECT_DEATH(gpu.SetLevel(5), "out of");
}

}  // namespace
}  // namespace aeo
