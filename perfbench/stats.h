// Summary statistics for the benchmark's latency samples.

#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// The tail of a latency sample: the highest percentile that still has at
/// least `min_beyond` samples above it, so the figure is never a single
/// outlier.  With n sorted samples this is the value at rank n - min_beyond
/// (1-based), i.e. exactly `min_beyond` samples lie beyond it, and its
/// percentile is 100 * (n - min_beyond) / n.  A sample with no more than
/// `min_beyond` values has no such percentile: the maximum is reported with
/// `beyond` = 0 and percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t beyond = 0;   ///< samples strictly above the reported rank
  int64_t samples = 0;  ///< sample count the tail was taken from
};

Tail TailOf(std::vector<double> samples, int64_t min_beyond = 10);

}  // namespace perfbench
