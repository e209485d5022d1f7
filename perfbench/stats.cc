#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
    const auto below = static_cast<size_t>(std::floor(rank));
    const size_t above = std::min(below + 1, values.size() - 1);
    const double weight = rank - static_cast<double>(below);
    return values[below] + (values[above] - values[below]) * weight;
}

double
Median(std::vector<double> values)
{
    return Percentile(std::move(values), 50.0);
}

}  // namespace perfbench
