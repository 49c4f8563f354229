#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that lie above the nearest-rank `percent`-th percentile of `n`
/// samples: n - ceil(n * percent / 100).
size_t SamplesBeyond(size_t n, int percent);

/// A percentile is reported only when at least this many samples lie beyond
/// it (p90 needs 100 samples, p99 needs 1000).
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of `samples`, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, int percent);

/// Median (mean of the two middle values for an even count); nullopt when
/// there are no samples.
std::optional<double> Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
