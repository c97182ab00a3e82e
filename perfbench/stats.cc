#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailOf(std::vector<double> samples, int64_t min_beyond) {
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const int64_t n = tail.samples;
  if (n <= min_beyond) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  const int64_t index = n - 1 - min_beyond;  // 0-based rank n - min_beyond
  tail.value = samples[static_cast<size_t>(index)];
  tail.beyond = min_beyond;
  tail.percentile = 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
  return tail;
}

}  // namespace perfbench
