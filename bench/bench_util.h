#ifndef MINIHIVE_BENCH_BENCH_UTIL_H_
#define MINIHIVE_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/value.h"
#include "mr/engine.h"

// Git/build metadata; the bench CMakeLists defines these at configure time.
#ifndef MINIHIVE_GIT_COMMIT
#define MINIHIVE_GIT_COMMIT "unknown"
#endif
#ifndef MINIHIVE_GIT_BRANCH
#define MINIHIVE_GIT_BRANCH "unknown"
#endif
#ifndef MINIHIVE_BUILD_TYPE
#define MINIHIVE_BUILD_TYPE "unknown"
#endif
#ifndef MINIHIVE_COMPILER_ID
#define MINIHIVE_COMPILER_ID "unknown"
#endif

namespace minihive::bench {

/// Crashes loudly on error — benches have no recovery story.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueOrDie();
}

inline std::string Mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", bytes / (1024.0 * 1024.0));
  return buf;
}

/// Fixed-width table printer for the figure/table reproductions.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const std::string& h : headers_) widths_.push_back(h.size());
  }

  void AddRow(std::vector<std::string> row) {
    for (size_t i = 0; i < row.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], row[i].size());
    }
    rows_.push_back(std::move(row));
  }

  void Print() const {
    PrintRow(headers_);
    std::string rule;
    for (size_t w : widths_) rule += std::string(w + 2, '-') + "+";
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(row);
    std::printf("\n");
  }

 private:
  void PrintRow(const std::vector<std::string>& row) const {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf(" %-*s |", static_cast<int>(widths_[i]), row[i].c_str());
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int decimals = 2) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// True when two query results hold the same rows in any order. Doubles
/// agree to a relative 1e-9: plans that split an aggregate differently sum
/// its partials in another order.
inline bool SameRows(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  auto less = [](const Row& x, const Row& y) {
    return std::lexicographical_compare(
        x.begin(), x.end(), y.begin(), y.end(),
        [](const Value& u, const Value& v) { return u.Compare(v) < 0; });
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      const Value& u = a[i][c];
      const Value& v = b[i][c];
      if (u.is_double() && v.is_double()) {
        const double x = u.AsDouble(), y = v.AsDouble();
        if (std::abs(x - y) > 1e-9 * std::max(std::abs(x), std::abs(y))) {
          return false;
        }
      } else if (u.Compare(v) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// True when MINIHIVE_BENCH_SMOKE is set (to anything but "0"): benches
/// shrink their shapes so CI's bench-smoke job finishes in seconds while
/// still exercising the full measurement and reporting path.
inline bool SmokeMode() {
  const char* v = std::getenv("MINIHIVE_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

/// Picks the workload size: `full` normally, `smoke` under MINIHIVE_BENCH_SMOKE.
template <typename T>
T SmokeScaled(T full, T smoke) {
  return SmokeMode() ? smoke : full;
}

/// Collects a bench's headline numbers and writes them — together with a
/// process-wide metrics-registry snapshot and git/build metadata — to
/// BENCH_<name>.json (schema below). tools/check_bench_regression.py compares
/// these files against bench/baseline/.
///
///   {"schema_version": 1, "bench": ..., "smoke": ...,
///    "git": {"commit", "branch"}, "build": {"type", "compiler"},
///    "metrics": {<name>: {"value", "unit"}, ...},
///    "registry": {"counters": ..., "gauges": ..., "histograms": ...}}
///
/// Units matter: the regression checker only compares machine-independent
/// units (rows/bytes/count/...) and ignores timings ("ms", "ns", ...).
class BenchReporter {
 public:
  explicit BenchReporter(std::string name) : name_(std::move(name)) {}

  void AddMetric(std::string_view metric, double value, std::string_view unit) {
    metrics_.push_back({std::string(metric), value, std::string(unit)});
  }

  /// Folds one job's counters in under "<prefix>." using the JobCounters
  /// field tables (stays in sync with the struct by construction).
  void AddJobCounters(std::string_view prefix, const mr::JobCounters& c) {
    std::string p = std::string(prefix) + ".";
    for (const auto& f : mr::JobCounters::atomic_u64_fields()) {
      AddMetric(p + f.name, static_cast<double>((c.*f.member).load()), "count");
    }
    for (const auto& f : mr::JobCounters::int_fields()) {
      AddMetric(p + f.name, static_cast<double>(c.*f.member), "count");
    }
    for (const auto& f : mr::JobCounters::atomic_i64_fields()) {
      AddMetric(p + f.name, static_cast<double>((c.*f.member).load()), "ns");
    }
    for (const auto& f : mr::JobCounters::double_fields()) {
      AddMetric(p + f.name, c.*f.member, "ms");
    }
  }

  /// Serializes the report (pretty JSON, stable key layout).
  std::string ToJson() const {
    json::Writer writer;
    writer.BeginObject();
    writer.Key("schema_version").Int(1);
    writer.Key("bench").String(name_);
    writer.Key("smoke").Bool(SmokeMode());
    writer.Key("git").BeginObject();
    writer.Key("commit").String(MINIHIVE_GIT_COMMIT);
    writer.Key("branch").String(MINIHIVE_GIT_BRANCH);
    writer.EndObject();
    writer.Key("build").BeginObject();
    writer.Key("type").String(MINIHIVE_BUILD_TYPE);
    writer.Key("compiler").String(MINIHIVE_COMPILER_ID);
    writer.EndObject();
    writer.Key("metrics").BeginObject();
    for (const Metric& m : metrics_) {
      writer.Key(m.name).BeginObject();
      writer.Key("value").Double(m.value);
      writer.Key("unit").String(m.unit);
      writer.EndObject();
    }
    writer.EndObject();
    writer.Key("registry");
    telemetry::MetricsRegistry::Global().WriteJson(&writer);
    writer.EndObject();
    return writer.str();
  }

  /// Writes BENCH_<name>.json into $MINIHIVE_BENCH_OUT_DIR (default: cwd).
  /// Crashes on I/O failure, like everything else in a bench.
  void Write() const {
    std::string dir = ".";
    if (const char* env = std::getenv("MINIHIVE_BENCH_OUT_DIR")) {
      if (env[0] != '\0') dir = env;
    }
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    out << ToJson() << "\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
      std::abort();
    }
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string name_;
  std::vector<Metric> metrics_;
};

}  // namespace minihive::bench

#endif  // MINIHIVE_BENCH_BENCH_UTIL_H_
