/**
 * @file
 * NonNegativeFmod (common/math_util.h) is std::fmod bit for bit on its
 * domain: finite x >= 0, y > 0, x / y < 2^52. The frame apps end each frame
 * through it, so any difference would move a frame boundary, and with it
 * every snapshot.
 *
 * Three input families: simulator-shaped ones (integer-microsecond times up
 * to 4000 s over periods up to 2 s, as AppModel passes them), every
 * near-multiple k·p + d of the catalogue's frame periods and of other
 * periods up to 0.1 s (d = -2..2 µs, where the rounded quotient can land
 * on the next integer), and random doubles across the exponent range.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"

namespace aeo {
namespace {

/** Inputs whose NonNegativeFmod and std::fmod differ in any bit. */
class Mismatches {
  public:
    void
    Check(double x, double y)
    {
        ++checked_;
        const double expected = std::fmod(x, y);
        const double actual = NonNegativeFmod(x, y);
        if (std::bit_cast<uint64_t>(expected) == std::bit_cast<uint64_t>(actual)) {
            return;
        }
        if (count_++ == 0) {
            char text[160];
            std::snprintf(text, sizeof(text),
                          "first: fmod(%a, %a) = %a, NonNegativeFmod gave %a", x, y,
                          expected, actual);
            first_ = text;
        }
    }

    int64_t count() const { return count_; }
    int64_t checked() const { return checked_; }
    const std::string& first() const { return first_; }

  private:
    int64_t checked_ = 0;
    int64_t count_ = 0;
    std::string first_;
};

constexpr int64_t kMaxTimeUs = 4'000'000'000;  // 4000 s

/** The frame periods of the app catalogue (apps/workloads.cc), in µs. */
const std::vector<int64_t> kCatalogueFramePeriodsUs = {16667, 33333, 400000,
                                                       1000000, 1200000};

double
MicrosToSeconds(int64_t us)
{
    return static_cast<double>(us) / 1e6;  // as SimTime::seconds()
}

TEST(NonNegativeFmodTest, SimulatorShapedInputsMatchStdFmod)
{
    Rng rng(2017);
    std::vector<int64_t> periods = kCatalogueFramePeriodsUs;
    for (int i = 0; i < 27; ++i) {
        periods.push_back(rng.UniformInt(1, 2'000'000));
    }
    Mismatches mismatches;
    for (const int64_t period : periods) {
        const double y = MicrosToSeconds(period);
        mismatches.Check(0.0, y);
        for (int i = 0; i < 10'000; ++i) {
            mismatches.Check(MicrosToSeconds(rng.UniformInt(0, kMaxTimeUs)), y);
        }
    }
    EXPECT_EQ(mismatches.count(), 0)
        << "of " << mismatches.checked() << "; " << mismatches.first();
}

TEST(NonNegativeFmodTest, EveryNearMultipleMatchesStdFmod)
{
    Mismatches mismatches;
    const auto near_multiples = [&](int64_t period, int64_t k_begin, int64_t k_end) {
        const double y = MicrosToSeconds(period);
        for (int64_t k = k_begin; k < k_end; ++k) {
            for (int64_t d = -2; d <= 2; ++d) {
                const int64_t x = k * period + d;
                if (x >= 0) {
                    mismatches.Check(MicrosToSeconds(x), y);
                }
            }
        }
    };
    // The catalogue's periods: every multiple up to 4000 s.
    for (const int64_t period : kCatalogueFramePeriodsUs) {
        near_multiples(period, 0, kMaxTimeUs / period + 1);
    }
    // Other periods up to 0.1 s: the first and the last 5000 multiples
    // below 4000 s.
    Rng rng(31);
    std::vector<int64_t> periods = {1, 2, 3, 7, 999, 99991, 100000};
    for (int i = 0; i < 9; ++i) {
        periods.push_back(rng.UniformInt(1, 100'000));
    }
    for (const int64_t period : periods) {
        const int64_t last = kMaxTimeUs / period + 1;
        near_multiples(period, 0, 5000);
        near_multiples(period, last - 5000, last);
    }
    EXPECT_EQ(mismatches.count(), 0)
        << "of " << mismatches.checked() << "; " << mismatches.first();
}

TEST(NonNegativeFmodTest, RandomDoublesMatchStdFmod)
{
    Rng rng(7);
    const auto random_double = [&rng](int64_t exponent) {
        return std::ldexp(1.0 + rng.NextDouble(), static_cast<int>(exponent));
    };
    Mismatches mismatches;
    for (int i = 0; i < 200'000; ++i) {
        // x / y < 2^(ex - ey + 1) <= 2^52.
        const int64_t ey = rng.UniformInt(-900, 900);
        const double y = random_double(ey);
        mismatches.Check(random_double(rng.UniformInt(ey - 60, ey + 51)), y);
        // A rounded multiple of y sits within an ulp of an exact one.
        const double m = static_cast<double>(rng.UniformInt(0, int64_t{1} << 40));
        mismatches.Check(m * y, y);
    }
    EXPECT_EQ(mismatches.count(), 0)
        << "of " << mismatches.checked() << "; " << mismatches.first();
}

}  // namespace
}  // namespace aeo
