/**
 * @file
 * Numeric helpers shared across modules: clamping, relative comparison,
 * an exact remainder, and summary statistics over samples.
 */
#ifndef AEO_COMMON_MATH_UTIL_H_
#define AEO_COMMON_MATH_UTIL_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace aeo {

/**
 * std::fmod(x, y), bit for bit, for finite x >= 0, y > 0 and x / y < 2^52,
 * without libm's remainder loop.
 *
 * The exact remainder x - n·y, n = trunc(x / y), is representable, so one
 * fma with the right n returns it exactly. q = floor(fl(x / y)) is n or
 * n + 1: rounding is monotone and n, n + 1 < 2^53 are doubles, so the
 * rounded quotient never falls below n nor rises above n + 1. With
 * q = n + 1 the fma yields a negative value (the exact x - (n + 1)·y lies
 * in [-y, 0) and cannot round to zero), and a second fma with n gives the
 * exact remainder. An exact multiple gives +0, as std::fmod does.
 */
inline double
NonNegativeFmod(double x, double y)
{
    const double q = std::floor(x / y);
    const double r = std::fma(-q, y, x);
    return r < 0.0 ? std::fma(1.0 - q, y, x) : r;
}

/** Clamps @p v to [lo, hi]. */
double Clamp(double v, double lo, double hi);

/** Linear interpolation between a and b at parameter t in [0, 1]. */
double Lerp(double a, double b, double t);

/** True if |a - b| <= tol * max(1, |a|, |b|). */
bool ApproxEqual(double a, double b, double tol = 1e-9);

/** Relative difference (b - a) / a, in percent. */
double PercentChange(double a, double b);

/** Arithmetic mean; returns 0 for an empty set. */
double Mean(const std::vector<double>& xs);

/** Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples. */
double StdDev(const std::vector<double>& xs);

/** Minimum; panics on empty input. */
double Min(const std::vector<double>& xs);

/** Maximum; panics on empty input. */
double Max(const std::vector<double>& xs);

/**
 * Percentile in [0, 100] with linear interpolation between order statistics.
 * Panics on empty input.
 */
double Percentile(std::vector<double> xs, double pct);

}  // namespace aeo

#endif  // AEO_COMMON_MATH_UTIL_H_
