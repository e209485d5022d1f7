/**
 * @file
 * Order statistics for host timings: every timing the benchmark reports is
 * a median (or percentile) over repeated samples, never a single reading.
 */
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

/**
 * The @p p-th percentile (0–100) of @p values, interpolating linearly
 * between closest ranks (rank = p/100 · (n − 1)), the convention of numpy's
 * default and Python's statistics.quantiles(method="inclusive"). 0 when
 * @p values is empty.
 */
double Percentile(std::vector<double> values, double p);

/** The median of @p values (mean of the middle pair when n is even). */
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
