#include "replay.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "exec/operators.h"
#include "mr/engine.h"
#include "orc/layout.h"
#include "orc/reader.h"
#include "ql/analyzer.h"
#include "ql/optimizer.h"
#include "ql/parser.h"
#include "ql/runtime.h"
#include "ql/task_compiler.h"
#include "vec/vectorized_pipeline.h"

namespace perfbench {

namespace mh = minihive;
using mh::Result;
using mh::Status;

namespace {

/// Discards what a replayed map pipeline emits; the replay only times it.
class NullEmitter : public mh::mr::ShuffleEmitter {
 public:
  Status Emit(mh::Row, mh::Row, int) override { return Status::OK(); }
};

/// True when the map region under `root` (up to its ReduceSink/FileSink)
/// holds a MapJoin: its hash tables come from the executor's local task,
/// so the pipeline cannot run on its own.
bool HasMapJoin(const mh::exec::OpDesc* root) {
  std::vector<const mh::exec::OpDesc*> stack = {root};
  std::set<const mh::exec::OpDesc*> seen;
  while (!stack.empty()) {
    const mh::exec::OpDesc* op = stack.back();
    stack.pop_back();
    if (!seen.insert(op).second) continue;
    if (op->kind == mh::exec::OpKind::kMapJoin) return true;
    if (op->kind == mh::exec::OpKind::kReduceSink) continue;
    for (const auto& child : op->children) stack.push_back(child.get());
  }
  return false;
}

/// Times one call and records it as a child span of `parent`.
class LayerClock {
 public:
  LayerClock(Tracer* tracer, int64_t parent, uint64_t request)
      : tracer_(tracer), parent_(parent), request_(request) {}

  template <typename Fn>
  auto Time(const char* name, double* total_ms, Fn&& fn) {
    const int64_t start = NowNanos();
    auto result = fn();
    const int64_t end = NowNanos();
    *total_ms += (end - start) / 1e6;
    tracer_->Add(name, start, end, parent_, request_);
    return result;
  }

 private:
  Tracer* tracer_;
  int64_t parent_;
  uint64_t request_;
};

/// One table-scan source of the compiled plan.
struct ScanSource {
  const mh::exec::OpDesc* root = nullptr;
  mh::ql::TableDesc table;
  std::vector<std::string> paths;
  mh::DeleteBitmapMap bitmaps;
};

Result<std::vector<ScanSource>> CollectScans(
    mh::ql::Catalog* catalog, const mh::ql::CompiledPlan& plan,
    bool apply_delete_bitmaps) {
  std::vector<ScanSource> scans;
  for (const mh::ql::MapRedJob& job : plan.jobs) {
    for (const auto& source : job.sources) {
      // Intermediate inputs (earlier jobs' output) are not table scans.
      if (!source.root->scan_temp_prefix.empty()) continue;
      ScanSource scan;
      scan.root = source.root.get();
      MINIHIVE_ASSIGN_OR_RETURN(scan.table,
                                catalog->GetTableCopy(source.root->table_name));
      if (scan.table.managed()) {
        for (const mh::ql::TableFile& f : catalog->Snapshot(scan.table)->files) {
          scan.paths.push_back(f.path);
          if (apply_delete_bitmaps && f.delete_bitmap != nullptr &&
              !f.delete_bitmap->empty()) {
            scan.bitmaps[f.path] = f.delete_bitmap;
          }
        }
      } else {
        scan.paths = catalog->TableFiles(scan.table);
      }
      scans.push_back(std::move(scan));
    }
  }
  return scans;
}

mh::orc::OrcReadOptions ReadOptionsFor(const ScanSource& scan,
                                       const std::string& path,
                                       bool verify_checksums,
                                       bool late_materialization) {
  mh::orc::OrcReadOptions options;
  options.projected_fields = scan.root->scan_projection;
  options.sarg = scan.root->sarg.get();
  options.verify_checksums = verify_checksums;
  options.enable_late_materialization = late_materialization;
  options.delete_bitmap = mh::FindDeleteBitmap(&scan.bitmaps, path);
  return options;
}

/// What a drain's reader reports about the work it skipped.
struct DrainCounts {
  uint64_t rows_deleted_skipped = 0;
  uint64_t lazy_decodes_avoided = 0;
};

/// Drains one file through OrcReader.
Result<DrainCounts> DrainOrc(mh::dfs::FileSystem* fs, const std::string& path,
                          const mh::orc::OrcReadOptions& options,
                          LayerClock* clock, const char* scan_span,
                          double* open_ms, double* scan_ms) {
  MINIHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<mh::orc::OrcReader> reader,
      clock->Time("orc.open", open_ms,
                  [&] { return mh::orc::OrcReader::Open(fs, path, options); }));
  MINIHIVE_ASSIGN_OR_RETURN(auto batch, reader->CreateBatch());
  MINIHIVE_RETURN_IF_ERROR(clock->Time(scan_span, scan_ms, [&]() -> Status {
    while (true) {
      MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextBatch(batch.get()));
      if (!more) return Status::OK();
    }
  }));
  return DrainCounts{reader->rows_deleted_skipped(),
                     reader->lazy_decodes_avoided()};
}

/// Reads and decompresses the stored bytes a scan of `path` touches: each
/// stripe's footer, its index when the SARG is active, and the streams of
/// the needed columns — only the selected index groups' segments when the
/// SARG prunes groups. Late materialization skips the lazy (non-filter)
/// columns of groups where no row survived phase 1; the reader reports only
/// how many column-group decodes it avoided, so the replay skips that many
/// selected groups' lazy segments (the last ones of each file).
Status ReplayStoredBytes(mh::dfs::FileSystem* fs, const std::string& path,
                         const ScanSource& scan, uint64_t lazy_decodes_avoided,
                         LayerClock* clock, ReplayTimes* t) {
  namespace orc = mh::orc;
  MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<orc::OrcReader> reader,
                            orc::OrcReader::Open(fs, path));
  const orc::FileTail& tail = reader->tail();
  const mh::codec::Codec* codec = mh::codec::GetCodec(tail.compression);
  MINIHIVE_ASSIGN_OR_RETURN(std::shared_ptr<mh::dfs::ReadableFile> file,
                            fs->Open(path));

  const auto& fields = tail.schema->children();
  std::set<uint32_t> needed;
  std::vector<int> projection = scan.root->scan_projection;
  if (projection.empty()) {
    for (size_t f = 0; f < fields.size(); ++f) {
      projection.push_back(static_cast<int>(f));
    }
  }
  const orc::SearchArgument* sarg = scan.root->sarg.get();
  const bool sarg_active = sarg != nullptr && !sarg->empty();
  if (sarg_active) {
    for (const orc::LeafPredicate& leaf : sarg->leaves()) {
      projection.push_back(leaf.column);
    }
  }
  std::set<uint32_t> filter;
  std::set<int> lazy_fields;
  for (size_t i = 0; i < projection.size(); ++i) {
    const int f = projection[i];
    if (f < 0 || static_cast<size_t>(f) >= fields.size()) continue;
    const bool is_filter = i >= scan.root->scan_projection.size() &&
                           !scan.root->scan_projection.empty();
    // Primitive fields occupy one column id; nested ones a contiguous range.
    std::vector<const mh::TypeDescription*> stack = {fields[f].get()};
    while (!stack.empty()) {
      const mh::TypeDescription* type = stack.back();
      stack.pop_back();
      needed.insert(type->column_id());
      if (is_filter) filter.insert(type->column_id());
      for (const auto& child : type->children()) stack.push_back(child.get());
    }
  }
  for (int f : scan.root->scan_projection) {
    if (f >= 0 && static_cast<size_t>(f) < fields.size() &&
        filter.count(fields[f]->column_id()) == 0) {
      lazy_fields.insert(f);
    }
  }
  const uint64_t lazy_groups_skipped =
      lazy_fields.empty() ? 0 : lazy_decodes_avoided / lazy_fields.size();

  auto read = [&](uint64_t offset, uint64_t length, std::string* out) {
    out->clear();
    t->stored_bytes += length;
    return clock->Time("dfs.read_at", &t->read_ms, [&] {
      return file->ReadAt(offset, length, out);
    });
  };
  auto decompress = [&](std::string_view stored, std::string* out) -> Status {
    out->clear();
    MINIHIVE_RETURN_IF_ERROR(clock->Time("codec.decompress", &t->decompress_ms,
                                         [&] {
      return mh::codec::DecompressUnits(codec, stored, out);
    }));
    t->decompressed_bytes += out->size();
    if (codec == nullptr) return Status::OK();
    std::string recompressed;
    return clock->Time("codec.compress", &t->compress_ms, [&] {
      return mh::codec::CompressToUnits(codec, *out, tail.compression_unit,
                                        &recompressed);
    });
  };

  std::string stored, raw;
  uint64_t lazy_groups_left = lazy_groups_skipped;
  for (const orc::StripeInformation& info : tail.stripes) {
    MINIHIVE_RETURN_IF_ERROR(
        read(info.offset + info.index_length + info.data_length,
             info.footer_length, &stored));
    MINIHIVE_RETURN_IF_ERROR(decompress(stored, &raw));
    orc::StripeFooter footer;
    MINIHIVE_RETURN_IF_ERROR(orc::StripeFooter::Deserialize(raw, &footer));

    orc::StripeIndex index;
    std::vector<bool> selected(footer.num_groups, true);
    if (sarg_active) {
      MINIHIVE_RETURN_IF_ERROR(read(info.offset, info.index_length, &stored));
      MINIHIVE_RETURN_IF_ERROR(decompress(stored, &raw));
      MINIHIVE_RETURN_IF_ERROR(orc::StripeIndex::Deserialize(raw, &index));
      if (index.segment_ends.size() < footer.streams.size()) {
        return Status::Corruption("stripe index of " + path +
                                  " lacks stream positions");
      }
      for (const auto& field : fields) {
        const size_t column = static_cast<size_t>(field->column_id());
        if (column >= index.group_stats.size() ||
            index.group_stats[column].size() < footer.num_groups) {
          return Status::Corruption("stripe index of " + path +
                                    " lacks group statistics");
        }
      }
      for (uint32_t g = 0; g < footer.num_groups; ++g) {
        std::vector<mh::orc::ColumnStatistics> stats;
        for (const auto& field : fields) {
          stats.push_back(index.group_stats[field->column_id()][g]);
        }
        selected[g] = !sarg->CanSkip(stats);
      }
    }

    // Spread the file's lazy skips over its stripes in order.
    uint64_t stripe_selected = 0;
    for (uint32_t g = 0; g < footer.num_groups; ++g) stripe_selected += selected[g];
    const uint64_t stripe_lazy_skips =
        std::min(stripe_selected, lazy_groups_left);
    lazy_groups_left -= stripe_lazy_skips;
    uint64_t stream_start = info.offset + info.index_length;
    for (size_t si = 0; si < footer.streams.size(); ++si) {
      const orc::StreamInfo& s = footer.streams[si];
      const uint64_t start = stream_start;
      stream_start += s.length;
      if (needed.count(s.column) == 0 || s.length == 0) continue;
      if (!sarg_active || orc::IsStripeScoped(s.kind)) {
        MINIHIVE_RETURN_IF_ERROR(read(start, s.length, &stored));
        MINIHIVE_RETURN_IF_ERROR(decompress(stored, &raw));
        continue;
      }
      const std::vector<uint64_t>& ends = index.segment_ends[si];
      uint64_t lazy_budget = 0;  // selected groups whose lazy segments decode
      for (uint32_t g = 0; g < footer.num_groups; ++g) lazy_budget += selected[g];
      const bool lazy = filter.count(s.column) == 0;
      if (lazy) {
        lazy_budget -= std::min(lazy_budget, stripe_lazy_skips);
      }
      for (uint32_t g = 0; g < footer.num_groups && g < ends.size(); ++g) {
        if (!selected[g]) continue;
        if (lazy && lazy_budget-- == 0) break;
        const uint64_t seg_start = g == 0 ? 0 : ends[g - 1];
        MINIHIVE_RETURN_IF_ERROR(
            read(start + seg_start, ends[g] - seg_start, &stored));
        MINIHIVE_RETURN_IF_ERROR(decompress(stored, &raw));
      }
    }
  }
  return Status::OK();
}

void RemoveUnder(mh::dfs::FileSystem* fs, const std::string& prefix) {
  for (const std::string& path : fs->List(prefix + "/")) {
    fs->Delete(path).ok();
  }
}

}  // namespace

Result<ReplayTimes> ReplayShape(mh::dfs::FileSystem* fs,
                                mh::ql::Catalog* catalog,
                                const mh::ql::DriverOptions& options,
                                const std::string& shape,
                                const std::string& sql, Tracer* tracer,
                                uint64_t request) {
  namespace ql = mh::ql;
  static std::atomic<int> replay_counter{0};
  const std::string scratch =
      "/tmp/perfbench-replay-" + std::to_string(replay_counter.fetch_add(1));
  ReplayTimes t;
  ScopedSpan root(tracer, "replay:" + shape, -1, request);
  LayerClock clock(tracer, root.id(), request);

  MINIHIVE_ASSIGN_OR_RETURN(
      ql::AstQueryPtr ast,
      clock.Time("ql.parse", &t.parse_ms, [&] { return ql::ParseQuery(sql); }));
  ql::Analyzer analyzer(catalog);
  MINIHIVE_ASSIGN_OR_RETURN(
      ql::PlannedQuery plan, clock.Time("ql.analyze", &t.analyze_ms, [&] {
        return analyzer.Analyze(*ast, scratch + "/result");
      }));
  MINIHIVE_RETURN_IF_ERROR(
      clock.Time("ql.optimize", &t.optimize_ms, [&]() -> Status {
        MINIHIVE_RETURN_IF_ERROR(
            ql::PushdownIntoScans(&plan, options.predicate_pushdown));
        if (options.mapjoin_conversion) {
          MINIHIVE_RETURN_IF_ERROR(ql::ConvertMapJoins(
              &plan, catalog, options.mapjoin_threshold_bytes));
        }
        if (options.merge_maponly_jobs) {
          MINIHIVE_RETURN_IF_ERROR(
              ql::MergeMapOnlyJobs(&plan, options.mapjoin_threshold_bytes));
        }
        if (options.correlation_optimizer) {
          MINIHIVE_RETURN_IF_ERROR(ql::ApplyCorrelationOptimizer(&plan));
        }
        return Status::OK();
      }));
  ql::CompileTasksOptions compile_options;
  compile_options.default_reducers = options.default_reducers;
  compile_options.map_aggr_flush_entries = options.map_aggr_flush_entries;
  MINIHIVE_ASSIGN_OR_RETURN(
      ql::CompiledPlan compiled, clock.Time("ql.compile", &t.compile_ms, [&] {
        return ql::CompileTasks(&plan, scratch, compile_options);
      }));

  ql::ExecutionOptions exec_options;
  exec_options.default_reducers = options.default_reducers;
  exec_options.split_size = options.split_size;
  exec_options.num_workers = options.num_workers;
  exec_options.vectorized = options.vectorized_execution;
  exec_options.use_combiner = options.shuffle_combiner;
  exec_options.enable_late_materialization =
      options.enable_late_materialization;
  exec_options.apply_delete_bitmaps = options.apply_delete_bitmaps;
  exec_options.mapjoin_memory_budget_bytes =
      options.mapjoin_memory_budget_bytes;
  Status status = [&]() -> Status {
    ql::PlanExecutor executor(fs, catalog, exec_options);
    mh::mr::JobCounters counters;
    std::vector<ql::JobReport> reports;
    MINIHIVE_RETURN_IF_ERROR(clock.Time("mr.execute", &t.execute_ms, [&] {
      return executor.Run(compiled, &counters, &reports);
    }));
    RemoveUnder(fs, scratch);
    ql::ExecutionOptions serial_options = exec_options;
    serial_options.num_workers = 1;
    ql::PlanExecutor serial_executor(fs, catalog, serial_options);
    mh::mr::JobCounters serial_counters;
    MINIHIVE_RETURN_IF_ERROR(
        clock.Time("mr.execute_serial", &t.execute_serial_ms, [&] {
          return serial_executor.Run(compiled, &serial_counters, &reports);
        }));
    MINIHIVE_ASSIGN_OR_RETURN(
        std::vector<ScanSource> scans,
        CollectScans(catalog, compiled, options.apply_delete_bitmaps));
    int task = 0;
    for (const ScanSource& scan : scans) {
      bool vectorized = false;
      if (options.vectorized_execution && !HasMapJoin(scan.root)) {
        const uint64_t split_size =
            options.split_size > 0 ? options.split_size : fs->block_size();
        MINIHIVE_ASSIGN_OR_RETURN(
            std::vector<mh::mr::InputSplit> splits,
            mh::mr::ComputeSplits(fs, scan.paths, split_size, 0));
        double pipeline_ms = 0;
        vectorized = true;
        for (const mh::mr::InputSplit& split : splits) {
          NullEmitter emitter;
          mh::mr::JobCounters task_counters;
          mh::exec::TaskContext ctx;
          ctx.fs = fs;
          ctx.task_suffix = "m-replay-" + std::to_string(task++);
          ctx.emitter = &emitter;
          ctx.counters = &task_counters;
          ctx.enable_late_materialization =
              options.enable_late_materialization;
          ctx.delete_bitmaps = &scan.bitmaps;
          Status s = clock.Time("vec.map_pipeline", &pipeline_ms, [&] {
            return mh::vec::RunVectorizedMapPipeline(
                scan.root, scan.table.schema, scan.table.format, split, &ctx);
          });
          // A pipeline the vectorizer does not take runs in row mode.
          if (s.IsNotImplemented()) {
            vectorized = false;
            break;
          }
          MINIHIVE_RETURN_IF_ERROR(s);
        }
        if (vectorized) t.vec_pipeline_ms += pipeline_ms;
      }
      for (const std::string& path : scan.paths) {
        double open_ms = 0, scan_ms = 0, nocrc_open_ms = 0;
        MINIHIVE_ASSIGN_OR_RETURN(
            DrainCounts counts,
            DrainOrc(fs, path,
                     ReadOptionsFor(scan, path, true,
                                    options.enable_late_materialization),
                     &clock, "orc.scan", &open_ms, &scan_ms));
        t.rows_deleted_skipped += counts.rows_deleted_skipped;
        t.orc_open_ms += open_ms;
        t.orc_scan_ms += scan_ms;
        if (vectorized) t.vec_orc_ms += open_ms + scan_ms;
        MINIHIVE_RETURN_IF_ERROR(
            DrainOrc(fs, path,
                     ReadOptionsFor(scan, path, false,
                                    options.enable_late_materialization),
                     &clock, "orc.scan_nocrc", &nocrc_open_ms,
                     &t.orc_scan_nocrc_ms)
                .status());
        MINIHIVE_RETURN_IF_ERROR(
            ReplayStoredBytes(fs, path, scan,
                              options.enable_late_materialization
                                  ? counts.lazy_decodes_avoided
                                  : 0,
                              &clock, &t));
      }
    }
    return Status::OK();
  }();
  RemoveUnder(fs, scratch);
  for (const std::string& dir : plan.temp_dirs) RemoveUnder(fs, dir);
  for (const std::string& dir : compiled.temp_dirs) RemoveUnder(fs, dir);
  MINIHIVE_RETURN_IF_ERROR(status);
  return t;
}

}  // namespace perfbench
