#include "soc/level_domain.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace aeo {
namespace {

TEST(LevelDomainTest, ResidencyGoesToTheCurrentLevel)
{
    LevelDomain domain(4);
    domain.AddResidency(1.0);
    domain.SetLevel(3);
    domain.AddResidency(2.0);
    domain.AddResidency(1.0);
    const std::vector<double> fractions = domain.ResidencyFractions();
    ASSERT_EQ(fractions.size(), 4u);
    EXPECT_DOUBLE_EQ(fractions[0], 0.25);
    EXPECT_DOUBLE_EQ(fractions[1], 0.0);
    EXPECT_DOUBLE_EQ(fractions[2], 0.0);
    EXPECT_DOUBLE_EQ(fractions[3], 0.75);
}

TEST(LevelDomainTest, FractionsAreZeroBeforeAnyCharge)
{
    LevelDomain domain(3);
    domain.SetLevel(2);
    EXPECT_EQ(domain.ResidencyFractions(), std::vector<double>(3, 0.0));
}

TEST(LevelDomainTest, FractionsSumToOne)
{
    LevelDomain domain(5);
    const std::vector<std::pair<int, double>> charges = {
        {1, 0.2}, {2, 0.3}, {4, 0.5}, {1, 0.1}};
    for (const auto& [level, seconds] : charges) {
        domain.SetLevel(level);
        domain.AddResidency(seconds);
    }
    double sum = 0.0;
    for (const double fraction : domain.ResidencyFractions()) {
        sum += fraction;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(domain.ResidencyFractions()[4], 0.5 / 1.1);
}

}  // namespace
}  // namespace aeo
