#include "stats.h"

#include <algorithm>

namespace perfbench {

size_t SamplesBeyond(size_t n, int percent) {
  const size_t rank = (n * static_cast<size_t>(percent) + 99) / 100;
  return n - rank;
}

std::optional<double> Percentile(std::vector<double> samples, int percent) {
  const size_t n = samples.size();
  if (n == 0 || SamplesBeyond(n, percent) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  const size_t rank = (n * static_cast<size_t>(percent) + 99) / 100;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

}  // namespace perfbench
