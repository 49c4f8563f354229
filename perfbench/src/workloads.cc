#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

using mh::Result;
using mh::Status;
using mh::Stopwatch;

namespace {

/// An untraced run sets up from scratch until kMinSetupSeconds have passed
/// (at least once, at most kMaxSetups times); setup_s is the median. Cheap
/// set-ups thus get more repeats and a steadier median.
constexpr int kMaxSetups = 20;
constexpr double kMinSetupSeconds = 0.5;
/// Decomposition replays per shape in the traced run (medians reported).
constexpr int kReplayReps = 5;

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

/// Whole-run counter totals: registry, DFS I/O and cache statistics.
struct CounterSnapshot {
  std::map<std::string, double> registry;
  uint64_t read_ops = 0;
  uint64_t bytes_physical = 0;
  uint64_t bytes_cached = 0;
  uint64_t bytes_written = 0;
  mh::cache::Cache::StatsSnapshot block;
  mh::cache::Cache::StatsSnapshot meta;

  static CounterSnapshot Take(mh::dfs::FileSystem* fs) {
    CounterSnapshot s;
    for (const auto& [name, value] :
         mh::telemetry::MetricsRegistry::Global().Snapshot()) {
      s.registry[name] = value;
    }
    s.read_ops = fs->stats().read_ops.load();
    s.bytes_physical = fs->stats().bytes_read_physical.load();
    s.bytes_cached = fs->stats().bytes_read_cached.load();
    s.bytes_written = fs->stats().bytes_written.load();
    if (auto caches = fs->cache_manager()) {
      if (caches->block_cache() != nullptr) {
        s.block = caches->block_cache()->stats();
      }
      if (caches->metadata_cache() != nullptr) {
        s.meta = caches->metadata_cache()->stats();
      }
    }
    return s;
  }
  double Registry(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second;
  }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "scan_agg") return MakeScanAgg(seed);
  if (name == "join_shuffle") return MakeJoinShuffle(seed);
  if (name == "ingest_mixed") return MakeIngestMixed(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------------

/// Per-field medians over replay repetitions of one shape.
ReplayTimes MedianReplay(const std::vector<ReplayTimes>& reps) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const ReplayTimes& r : reps) v.push_back(static_cast<double>(r.*field));
    return Median(v).value_or(0);
  };
  ReplayTimes m;
  m.parse_ms = med(&ReplayTimes::parse_ms);
  m.analyze_ms = med(&ReplayTimes::analyze_ms);
  m.optimize_ms = med(&ReplayTimes::optimize_ms);
  m.compile_ms = med(&ReplayTimes::compile_ms);
  m.execute_ms = med(&ReplayTimes::execute_ms);
  m.execute_serial_ms = med(&ReplayTimes::execute_serial_ms);
  m.vec_pipeline_ms = med(&ReplayTimes::vec_pipeline_ms);
  m.vec_orc_ms = med(&ReplayTimes::vec_orc_ms);
  m.orc_open_ms = med(&ReplayTimes::orc_open_ms);
  m.orc_scan_ms = med(&ReplayTimes::orc_scan_ms);
  m.orc_scan_nocrc_ms = med(&ReplayTimes::orc_scan_nocrc_ms);
  m.decompress_ms = med(&ReplayTimes::decompress_ms);
  m.compress_ms = med(&ReplayTimes::compress_ms);
  m.read_ms = med(&ReplayTimes::read_ms);
  m.stored_bytes = reps.front().stored_bytes;
  m.decompressed_bytes = reps.front().decompressed_bytes;
  m.rows_deleted_skipped = reps.front().rows_deleted_skipped;
  return m;
}

std::string Pct(double part, double whole) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", whole > 0 ? 100.0 * part / whole : 0.0);
  return buf;
}

std::string Ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%9.3f ms", ms);
  return buf;
}

/// Wall-time breakdown of one shape's traced requests: the benchmark's
/// request span and, inside it, the program's own plan / execute / fetch
/// spans; "other" is what none of them covers (admission, clean-up, result
/// checks). Medians over the shape's requests.
void PrintWallBreakdown(const std::string& shape,
                        const std::vector<SpanRecord>& spans, RunOutput* out) {
  std::map<int64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    children[spans[i].parent].push_back(i);
  }
  auto ms = [&](size_t i) {
    return (spans[i].end_nanos - spans[i].start_nanos) / 1e6;
  };
  std::map<std::string, std::vector<double>> parts;
  for (size_t r : children[-1]) {
    if (spans[r].name != "request:" + shape) continue;
    double covered = 0;
    for (size_t q : children[static_cast<int64_t>(r)]) {
      if (spans[q].name.rfind("program:query", 0) != 0) continue;
      for (size_t phase : children[static_cast<int64_t>(q)]) {
        const std::string name = spans[phase].name.substr(8);  // "program:"
        parts[name].push_back(ms(phase));
        covered += ms(phase);
      }
    }
    parts["request"].push_back(ms(r));
    parts["other"].push_back(ms(r) - covered);
  }
  const double request = Median(parts["request"]).value_or(0);
  std::string line = "breakdown " + shape + " (traced request p50 " +
                     Ms(request) + ", n=" +
                     std::to_string(parts["request"].size()) + "):";
  for (const char* phase : {"plan", "execute", "fetch", "other"}) {
    line += std::string(" ") + phase + " " +
            Pct(Median(parts[phase]).value_or(0), request);
  }
  out->notes.push_back(line);
}

/// The executor's serial work split by layer from the replay: each layer's
/// self time is its call's time minus the time of the calls it contains.
void PrintSerialBreakdown(const ReplayTimes& r, RunOutput* out) {
  const double row_scans = r.orc_open_ms + r.orc_scan_ms - r.vec_orc_ms;
  const double serial = r.execute_serial_ms;
  const double mr_self = serial - r.vec_pipeline_ms - row_scans;
  const double vec_self = r.vec_pipeline_ms - r.vec_orc_ms;
  const double crc = r.orc_scan_ms - r.orc_scan_nocrc_ms;
  const double orc_self = r.orc_open_ms + r.orc_scan_nocrc_ms -
                          r.decompress_ms - r.read_ms;
  const double ql = r.parse_ms + r.analyze_ms + r.optimize_ms + r.compile_ms;
  out->notes.push_back(
      "  replay: ql " + Ms(ql) + "; serial execute " + Ms(serial) +
      " = mr/exec self " + Pct(mr_self, serial) + ", vec self " +
      Pct(vec_self, serial) + ", orc decode self " + Pct(orc_self, serial) +
      ", orc crc " + Pct(crc, serial) + ", codec " +
      Pct(r.decompress_ms, serial) + ", dfs " + Pct(r.read_ms, serial));
}

}  // namespace

Result<RunOutput> RunWorkload(const RunConfig& config) {
  std::unique_ptr<Workload> w = MakeWorkload(config.workload, config.seed);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  RunOutput out;
  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.empty() ||
         (!config.trace && static_cast<int>(setup_s.size()) < kMaxSetups &&
          setup_total < kMinSetupSeconds)) {
    Stopwatch watch;
    MINIHIVE_RETURN_IF_ERROR(w->Setup());
    setup_s.push_back(watch.ElapsedSeconds());
    setup_total += setup_s.back();
  }
  LoopRecorder warmup;
  MINIHIVE_RETURN_IF_ERROR(w->Prepare(&warmup, &out));
  Tracer off(false);

  if (!config.trace) {
    LoopRecorder rec;
    Stopwatch watch;
    MINIHIVE_RETURN_IF_ERROR(w->Loop(config.seconds, &rec, &off, nullptr));
    const double loop_seconds = watch.ElapsedSeconds();
    const std::vector<double> reads = rec.Reads();
    const std::optional<double> p90 = Percentile(reads, 90);
    if (!p90) {
      return Status::Internal("read_p90_ms needs >= 100 reads per run, got " +
                              std::to_string(reads.size()));
    }
    std::string setups = "set-up seconds:";
    for (double v : setup_s) setups.append(" ").append(std::to_string(v));
    out.notes.push_back(setups);
    const std::pair<double, uint64_t> op_p50 = rec.MeanOfMedians();
    out.end_to_end = {
        {"setup_s", *Median(setup_s), "s", setup_s.size()},
        {"read_qps", Ratio(static_cast<double>(reads.size()), loop_seconds),
         "queries/s", reads.size()},
        {"read_p90_ms", *p90, "ms", reads.size()},
        {"op_p50_mean_ms", op_p50.first, "ms", op_p50.second},
        {"peak_rss_mb", PeakRssMb(), "MB", 0},
        {"stored_bytes_per_user_byte", w->StoredBytesPerUserByte(), "ratio", 0},
    };
    MINIHIVE_RETURN_IF_ERROR(w->WorkloadMetrics(rec, loop_seconds, &out));
    rec.AddCounts(warmup);
    out.attempted = rec.attempted();
    out.failed = rec.failed();
    out.workload_metrics.push_back(
        {"failed_frac",
         Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
         "ratio", out.attempted});
    for (const std::string& f : rec.failures()) out.notes.push_back("FAILED " + f);
    return out;
  }

  // Traced run: an untraced loop for the overhead comparison and the
  // request latencies, then the traced loop, then the replays.
  LoopRecorder untraced;
  Stopwatch watch;
  MINIHIVE_RETURN_IF_ERROR(w->Loop(config.seconds / 2, &untraced, &off, nullptr));
  const double untraced_qps =
      Ratio(static_cast<double>(untraced.reads_done()), watch.ElapsedSeconds());

  Tracer tracer(true);
  ProgramTotals program;
  LoopRecorder traced;
  w->SetProfiling(true);
  mh::dfs::FileSystem* fs = w->fs();
  const CounterSnapshot before = CounterSnapshot::Take(fs);
  watch.Reset();
  MINIHIVE_RETURN_IF_ERROR(w->Loop(config.seconds, &traced, &tracer, &program));
  const double traced_seconds = watch.ElapsedSeconds();
  const CounterSnapshot after = CounterSnapshot::Take(fs);
  w->SetProfiling(false);
  const double traced_qps =
      Ratio(static_cast<double>(traced.reads_done()), traced_seconds);
  out.notes.push_back("tracing overhead: read_qps traced " +
                      std::to_string(traced_qps) + " vs untraced " +
                      std::to_string(untraced_qps));

  // Decomposition replays, after the loop so they do not disturb it.
  const std::vector<SpanRecord> loop_spans = tracer.Spans();
  std::vector<ReplayTimes> shapes;
  uint64_t request = 1u << 30;
  for (const Shape& shape : w->Shapes()) {
    std::vector<ReplayTimes> reps;
    for (int i = 0; i < kReplayReps; ++i) {
      MINIHIVE_ASSIGN_OR_RETURN(
          ReplayTimes t, ReplayShape(fs, w->catalog(), w->ReplayOptions(),
                                     shape.name, shape.sql, &tracer, request++));
      reps.push_back(t);
    }
    shapes.push_back(MedianReplay(reps));
    PrintWallBreakdown(shape.name, loop_spans, &out);
    PrintSerialBreakdown(shapes.back(), &out);
  }
  MINIHIVE_ASSIGN_OR_RETURN(auto written, w->WriterReplay());

  auto mean = [&](double ReplayTimes::*field) {
    double sum = 0;
    for (const ReplayTimes& r : shapes) sum += r.*field;
    return Ratio(sum, static_cast<double>(shapes.size()));
  };
  auto mean_of = [&](const std::function<double(const ReplayTimes&)>& f) {
    double sum = 0;
    for (const ReplayTimes& r : shapes) sum += f(r);
    return Ratio(sum, static_cast<double>(shapes.size()));
  };
  const double decompressed = mean_of(
      [](const ReplayTimes& r) { return static_cast<double>(r.decompressed_bytes); });
  const double stored = mean_of(
      [](const ReplayTimes& r) { return static_cast<double>(r.stored_bytes); });
  const double decompress_ms = mean(&ReplayTimes::decompress_ms);
  const double requests = static_cast<double>(traced.attempted());
  const double reads = static_cast<double>(std::max<uint64_t>(1, program.queries));
  auto delta = [&](const char* name) {
    return after.Registry(name) - before.Registry(name);
  };
  auto per_request = [&](double v) { return Ratio(v, requests); };
  const double groups_read = delta("orc.reader.groups_read");
  const double groups_skipped = delta("orc.reader.groups_skipped");
  const double block_hits = static_cast<double>(after.block.hits - before.block.hits);
  const double block_misses =
      static_cast<double>(after.block.misses - before.block.misses);
  const double meta_hits = static_cast<double>(after.meta.hits - before.meta.hits);
  const double meta_misses = static_cast<double>(after.meta.misses - before.meta.misses);
  const WriteLayers wl = w->write_layers();
  auto clamp0 = [](double v) { return std::max(0.0, v); };

  out.per_layer = {
      {"codec.decompress_ms", decompress_ms, "ms", 0},
      {"codec.decompressed_bytes", decompressed, "bytes", 0},
      {"codec.decompress_mb_per_s", Ratio(decompressed / 1e6, decompress_ms / 1e3),
       "MB/s", 0},
      {"codec.compress_ms", mean(&ReplayTimes::compress_ms), "ms", 0},
      {"codec.ratio", Ratio(decompressed, stored), "ratio", 0},
      {"orc.open_ms", mean(&ReplayTimes::orc_open_ms), "ms", 0},
      {"orc.scan_ms", mean(&ReplayTimes::orc_scan_ms), "ms", 0},
      {"orc.crc_ms", clamp0(mean_of([](const ReplayTimes& r) {
         return r.orc_scan_ms - r.orc_scan_nocrc_ms;
       })), "ms", 0},
      {"orc.decode_self_ms", clamp0(mean_of([](const ReplayTimes& r) {
         return r.orc_open_ms + r.orc_scan_nocrc_ms - r.decompress_ms - r.read_ms;
       })), "ms", 0},
      {"orc.groups_read", per_request(groups_read), "count", 0},
      {"orc.groups_skipped", per_request(groups_skipped), "count", 0},
      {"orc.group_skip_ratio", Ratio(groups_skipped, groups_read + groups_skipped),
       "ratio", 0},
      {"orc.rows_late_skipped", per_request(delta("orc.reader.rows_late_skipped")),
       "count", 0},
      {"orc.lazy_decodes_avoided",
       per_request(delta("orc.reader.lazy_decodes_avoided")), "count", 0},
      {"orc.rows_deleted_skipped", mean_of([](const ReplayTimes& r) {
         return static_cast<double>(r.rows_deleted_skipped);
       }), "count", 0},
      {"orc.write_ms", Ratio(written.first * 10000.0,
                             static_cast<double>(written.second)), "ms", 0},
      {"orc.write_rows_per_s", Ratio(static_cast<double>(written.second),
                                     written.first / 1e3), "rows/s", 0},
      {"vec.map_pipeline_ms", mean(&ReplayTimes::vec_pipeline_ms), "ms", 0},
      {"vec.self_ms", clamp0(mean_of([](const ReplayTimes& r) {
         return r.vec_pipeline_ms - r.vec_orc_ms;
       })), "ms", 0},
      {"exec.mapjoin_probe_ms", Ratio(program.mapjoin_ms, reads), "ms", 0},
      {"exec.join_ms", Ratio(program.join_ms, reads), "ms", 0},
      {"exec.groupby_ms", Ratio(program.groupby_ms, reads), "ms", 0},
      {"mr.execute_ms", Ratio(program.execute_ms, reads), "ms", 0},
      {"mr.map_phase_ms", Ratio(program.map_phase_ms, reads), "ms", 0},
      {"mr.reduce_phase_ms", Ratio(program.reduce_phase_ms, reads), "ms", 0},
      {"mr.shuffle_sort_ms", Ratio(program.shuffle_sort_ms, reads), "ms", 0},
      {"mr.local_task_ms", Ratio(program.local_task_ms, reads), "ms", 0},
      {"mr.shuffled_bytes", Ratio(static_cast<double>(program.shuffled_bytes), reads),
       "bytes", 0},
      {"mr.map_output_records",
       Ratio(static_cast<double>(program.map_output_records), reads), "count", 0},
      {"mr.reduce_input_records",
       Ratio(static_cast<double>(program.reduce_input_records), reads), "count", 0},
      {"mr.combine_keep_ratio", Ratio(static_cast<double>(program.combine_out),
                                      static_cast<double>(program.combine_in)),
       "ratio", 0},
      {"mr.task_failures", static_cast<double>(program.task_failures), "count", 0},
      {"ql.parse_ms", mean(&ReplayTimes::parse_ms), "ms", 0},
      {"ql.analyze_ms", mean(&ReplayTimes::analyze_ms), "ms", 0},
      {"ql.optimize_ms", mean(&ReplayTimes::optimize_ms), "ms", 0},
      {"ql.compile_ms", mean(&ReplayTimes::compile_ms), "ms", 0},
      {"ql.jobs", Ratio(static_cast<double>(program.jobs), reads), "count", 0},
      {"cache.block_hit_ratio", Ratio(block_hits, block_hits + block_misses),
       "ratio", 0},
      {"cache.block_evictions",
       per_request(static_cast<double>(after.block.evictions - before.block.evictions)),
       "count", 0},
      {"cache.meta_hit_ratio", Ratio(meta_hits, meta_hits + meta_misses), "ratio", 0},
      {"cache.meta_evictions",
       per_request(static_cast<double>(after.meta.evictions - before.meta.evictions)),
       "count", 0},
      {"session.admission_wait_ms", Ratio(program.admission_wait_ms, reads), "ms", 0},
      {"session.queries_queued", delta("session.queries_queued"), "count", 0},
      {"scheduler.queue_wait_ms", Ratio(program.sched_wait_ms, reads), "ms", 0},
      {"scheduler.tasks_run", per_request(delta("scheduler.tasks_run")), "count", 0},
      {"dfs.read_ops", per_request(static_cast<double>(after.read_ops - before.read_ops)),
       "count", 0},
      {"dfs.bytes_read_physical",
       per_request(static_cast<double>(after.bytes_physical - before.bytes_physical)),
       "bytes", 0},
      {"dfs.bytes_read_cached",
       per_request(static_cast<double>(after.bytes_cached - before.bytes_cached)),
       "bytes", 0},
      {"dfs.read_ms", mean(&ReplayTimes::read_ms), "ms", 0},
      {"dfs.bytes_written",
       per_request(static_cast<double>(after.bytes_written - before.bytes_written)),
       "bytes", 0},
      {"table_ops.insert_ms", wl.insert_ms, "ms", 0},
      {"table_ops.delete_ms", wl.delete_ms, "ms", 0},
      {"table_ops.files_committed", wl.files_committed, "count", 0},
      {"table_ops.rows_upserted", wl.rows_upserted, "count", 0},
      {"compaction.sweep_ms", wl.sweep_ms, "ms", 0},
      {"compaction.files_rewritten", wl.files_rewritten, "count", 0},
      {"compaction.rows_rewritten", wl.rows_rewritten, "count", 0},
      {"compaction.bytes_rewritten", wl.bytes_rewritten, "bytes", 0},
      {"compaction.live_files", wl.live_files, "count", 0},
      {"compaction.reclaim_ratio", wl.reclaim_ratio, "ratio", 0},
  };
  out.notes.push_back(
      "traced loop: " + std::to_string(traced.attempted()) + " requests (" +
      std::to_string(program.queries) + " queries) in " +
      std::to_string(traced_seconds) + " s; per-layer counts are per request "
      "of the traced loop, replay times per replayed shape");
  if (!config.trace_path.empty() && !tracer.WriteJson(config.trace_path)) {
    out.notes.push_back("could not write spans to " + config.trace_path);
  }
  traced.AddCounts(untraced);
  traced.AddCounts(warmup);
  out.attempted = traced.attempted();
  out.failed = traced.failed();
  for (const std::string& f : traced.failures()) out.notes.push_back("FAILED " + f);
  return out;
}

}  // namespace perfbench
