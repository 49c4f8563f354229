#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON); empty = not written.
  std::string trace_path;
};

/// One reported number. `samples` is the sample count behind a timing
/// statistic (0 when the value is not a statistic over samples).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Untraced run: the metrics every workload reports (the gated set),
  /// then the workload's own end-to-end metrics.
  std::vector<Metric> end_to_end;
  std::vector<Metric> workload_metrics;
  /// Traced run: every per-layer metric.
  std::vector<Metric> per_layer;
  /// Human-readable report lines (sizes, breakdowns, check failures).
  std::vector<std::string> notes;
};

/// Builds, loads and drives one workload as configured.
minihive::Result<RunOutput> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
