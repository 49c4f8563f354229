// MiniHive benchmark driver.
//
//   minihive_perfbench --workload <scan_agg|join_shuffle|ingest_mixed>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--trace-out <spans.json>]
//
// Builds the workload's tables from the seed, runs its closed loop for the
// given time, checks every answer against a reference that does not share
// the program's query path, and prints a report whose last line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

struct Host {
  std::string cpu;
  unsigned nproc = 0;
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string commit = PERFBENCH_COMMIT;
};

Host Fingerprint() {
  Host host;
  host.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) host.cpu = line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu.empty()) host.cpu = "unknown";
  return host;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-28s %16.6f %-10s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: minihive_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               error);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || config.seconds <= 0) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) {
    return Usage("--workload and --seed are required");
  }

  const Host host = Fingerprint();
#ifndef NDEBUG
  std::fprintf(stderr, "error: assertions are compiled in; timings need an "
                       "optimized build\n");
  return 3;
#endif
  if (host.build_type != "Release") {
    std::fprintf(stderr,
                 "error: build type is '%s'; timings are only comparable "
                 "between Release builds\n",
                 host.build_type.c_str());
    return 3;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("host: cpu=\"%s\" nproc=%u compiler=%s build=%s commit=%s\n",
              host.cpu.c_str(), host.nproc, host.compiler.c_str(),
              host.build_type.c_str(), host.commit.c_str());
  std::fflush(stdout);

  minihive::Result<RunOutput> run = RunWorkload(config);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const RunOutput& out = *run;
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  PrintMetrics("end-to-end (gated):", out.end_to_end);
  PrintMetrics("end-to-end (this workload):", out.workload_metrics);
  PrintMetrics("per-layer:", out.per_layer);

  std::printf(
      "detail: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host\": {\"cpu\": %s, \"nproc\": %u, \"compiler\": "
      "%s, \"build_type\": %s, \"commit\": %s}, \"end_to_end\": %s, "
      "\"workload_metrics\": %s, \"per_layer\": %s}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0,
      JsonString(host.cpu).c_str(), host.nproc, JsonString(host.compiler).c_str(),
      JsonString(host.build_type).c_str(), JsonString(host.commit).c_str(),
      MetricsJson(out.end_to_end, true).c_str(),
      MetricsJson(out.workload_metrics, true).c_str(),
      MetricsJson(out.per_layer, false).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(config.trace ? out.per_layer : out.end_to_end, false)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
