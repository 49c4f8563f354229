#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "ql/compaction.h"
#include "ql/parser.h"
#include "ql/table_ops.h"
#include "workload.h"

namespace perfbench {

using mh::Result;
using mh::Row;
using mh::Status;
using mh::Value;

namespace {

constexpr int64_t kIngestKeys = 4000;
constexpr int kIngestPartitions = 4;
constexpr int kBatchRows = 100;
constexpr int kLoadBatchRows = 1000;
/// One commit in kDeleteEvery is a DELETE, at a phase that puts it at least
/// two commits (two sweeps) before the next rollup. A rollup right after a
/// DELETE reads freshly rewritten files and takes about three times as long;
/// at one rollup in five those sat right at p90 and made read_p90_ms swing.
constexpr int kDeleteEvery = 25;
constexpr int kDeletePhase = 12;
constexpr int64_t kDeleteSpan = 40;  // keys per DELETE range
constexpr int kRollupEvery = 20;    // commits between rollups
constexpr int kWarmupCommits = 200;
constexpr uint64_t kIngestBlockCacheBytes = 16ULL << 20;
/// Commits at the start of the timed loop over which the byte ratios are
/// taken: a fixed count, so they repeat exactly for one seed.
constexpr int kByteWindowCommits = 500;

// ---------------------------------------------------------------------------
// ingest_mixed: one writer thread on a managed table (k, grp, amount),
// partitioned 4 ways with UNIQUE KEY (k): 100-row INSERT batches over a
// fixed keyspace (upserts after warm-up), a seeded DELETE of a key range
// every kDeleteEvery commits, one compaction sweep after every commit, and
// a rollup every kRollupEvery commits. No timers drive any of it, so byte
// counts repeat exactly for one seed.
// ---------------------------------------------------------------------------

const char kRollup[] =
    "SELECT grp, COUNT(*) AS n, SUM(amount) AS total FROM ingest GROUP BY grp";

class IngestMixed : public Workload {
 public:
  explicit IngestMixed(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    driver_.reset();
    compactor_.reset();
    ops_.reset();
    catalog_.reset();
    fs_ = std::make_unique<mh::dfs::FileSystem>();
    catalog_ = std::make_unique<mh::ql::Catalog>(fs_.get());
    ops_ = std::make_unique<mh::ql::TableOps>(fs_.get(), catalog_.get());
    compactor_ =
        std::make_unique<mh::ql::CompactionManager>(fs_.get(), catalog_.get());
    driver_ = std::make_unique<mh::ql::Driver>(fs_.get(), catalog_.get(),
                                               ReplayOptions());
    model_ = IngestModel();
    amounts_ = std::make_unique<mh::Random>(seed_ ^ 0x616d6f756e74ULL);
    deletes_ = std::make_unique<mh::Random>(seed_ ^ 0x64656c657465ULL);
    commit_ = 0;
    // A seeded order of the keyspace; commits walk it cyclically.
    order_.resize(static_cast<size_t>(kIngestKeys));
    std::iota(order_.begin(), order_.end(), 0);
    mh::Random shuffle(seed_ ^ 0x6f72646572ULL);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[shuffle.Uniform(i)]);
    }

    MINIHIVE_RETURN_IF_ERROR(Statement(
        "CREATE TABLE ingest (k INT, grp INT, amount DOUBLE) "
        "PARTITIONED BY (grp) UNIQUE KEY (k)").status());
    for (int64_t lo = 0; lo < kIngestKeys; lo += kLoadBatchRows) {
      std::vector<int64_t> keys;
      for (int64_t k = lo; k < std::min(kIngestKeys, lo + kLoadBatchRows); ++k) {
        keys.push_back(k);
      }
      MINIHIVE_RETURN_IF_ERROR(Statement(InsertSql(keys)).status());
    }
    for (int i = 0; i < 100; ++i) {
      MINIHIVE_ASSIGN_OR_RETURN(mh::ql::CompactionStats s,
                                compactor_->RunOnce());
      if (s.files_removed == 0 && s.files_written == 0 &&
          s.tombstones_deleted == 0) {
        break;
      }
    }
    return Status::OK();
  }

  Status Prepare(LoopRecorder* rec, RunOutput* out) override {
    Tracer off(false);
    while (commit_ < kWarmupCommits) Step(rec, &off, nullptr, nullptr, 0);
    warmup_live_files_ = LiveFiles();
    out->notes.push_back(
        "ingest: keyspace " + std::to_string(kIngestKeys) + " keys, " +
        std::to_string(kIngestPartitions) + " partitions, " +
        std::to_string(kBatchRows) + "-row INSERT batches, DELETE of " +
        std::to_string(kDeleteSpan) + " keys every " +
        std::to_string(kDeleteEvery) + " commits, a compaction sweep after "
        "every commit, a rollup every " + std::to_string(kRollupEvery) +
        " commits; live files after " + std::to_string(kWarmupCommits) +
        " warm-up commits: " + std::to_string(warmup_live_files_));
    return Status::OK();
  }

  Status Loop(double seconds, LoopRecorder* rec, Tracer* tracer,
              ProgramTotals* program) override {
    window_ = Window();
    window_.start_commit = commit_;
    min_live_files_ = UINT64_MAX;
    max_live_files_ = 0;
    window_.start_written = fs_->stats().bytes_written.load();
    loop_rows_ = 0;
    WriteLayers layers;
    const mh::ql::CompactionStats before = compactor_->totals();
    const LoopClock clock(seconds);
    uint64_t request = 1;
    while (clock.Running(rec->reads_done() >= kMinReads &&
                         rec->Count("insert") >= kMinInserts) ||
           commit_ < window_.start_commit + kByteWindowCommits) {
      Step(rec, tracer, program, &layers, request++);
    }
    const mh::ql::CompactionStats after = compactor_->totals();
    const double sweeps = static_cast<double>(after.sweeps - before.sweeps);
    layers.sweep_ms = Ratio(layers.sweep_ms, sweeps);
    layers.files_rewritten =
        Ratio(static_cast<double>(after.files_removed - before.files_removed),
              sweeps);
    layers.rows_rewritten =
        Ratio(static_cast<double>(after.rows_rewritten - before.rows_rewritten),
              sweeps);
    layers.bytes_rewritten = Ratio(layers.bytes_rewritten, sweeps);
    layers.reclaim_ratio = Ratio(
        static_cast<double>(after.deleted_rows_reclaimed -
                            before.deleted_rows_reclaimed),
        static_cast<double>(after.rows_rewritten - before.rows_rewritten));
    layers.insert_ms = Ratio(layers.insert_ms, static_cast<double>(inserts_));
    layers.files_committed =
        Ratio(layers.files_committed, static_cast<double>(inserts_));
    layers.rows_upserted =
        Ratio(layers.rows_upserted, static_cast<double>(inserts_));
    layers.delete_ms = Ratio(layers.delete_ms, static_cast<double>(deletes_n_));
    layers.live_files = static_cast<double>(LiveFiles());
    layers_ = layers;
    inserts_ = 0;
    deletes_n_ = 0;
    return Status::OK();
  }

  void SetProfiling(bool on) override {
    driver_->options().enable_profiling = on;
  }

  std::vector<Shape> Shapes() const override { return {{"rollup", kRollup}}; }

  mh::ql::DriverOptions ReplayOptions() const override {
    mh::ql::DriverOptions options;
    options.vectorized_execution = true;
    options.num_workers = Workers();
    // Every sweep writes new files, so a block cache keeps filling with
    // blocks of replaced files until it is full. A small one fills within
    // the warm-up, and memory reaches its steady state before the loop.
    options.block_cache_bytes = kIngestBlockCacheBytes;
    return options;
  }

  mh::dfs::FileSystem* fs() override { return fs_.get(); }
  mh::ql::Catalog* catalog() override { return catalog_.get(); }

  double StoredBytesPerUserByte() override {
    return Ratio(static_cast<double>(window_.stored_bytes),
                 static_cast<double>(window_.live_raw_bytes));
  }

  Status WorkloadMetrics(const LoopRecorder& rec, double loop_seconds,
                         RunOutput* out) override {
    const std::vector<double> rollups = rec.Samples("rollup");
    const std::vector<double> inserts = rec.Samples("insert");
    const std::optional<double> p99 = Percentile(inserts, 99);
    if (!p99) {
      return Status::Internal("insert_p99_ms needs >= 1000 inserts per run, got " +
                              std::to_string(inserts.size()));
    }
    // Rollup latency over the first and second half of the loop's rollups:
    // equal halves show that compaction keeps the table from degrading.
    const size_t half = rollups.size() / 2;
    out->notes.push_back(
        "rollup p50 first half " +
        std::to_string(Median({rollups.begin(), rollups.begin() + half})
                           .value_or(0)) +
        " ms, second half " +
        std::to_string(Median({rollups.begin() + half, rollups.end()})
                           .value_or(0)) +
        " ms; live files after each sweep of the loop: " +
        std::to_string(min_live_files_) + ".." +
        std::to_string(max_live_files_));
    out->workload_metrics.push_back(
        {"rollup_p50_ms", Median(rollups).value_or(0), "ms", rollups.size()});
    out->workload_metrics.push_back(
        {"insert_p50_ms", Median(inserts).value_or(0), "ms", inserts.size()});
    out->workload_metrics.push_back({"insert_p99_ms", *p99, "ms", inserts.size()});
    out->workload_metrics.push_back(
        {"ingest_rows_per_s", Ratio(static_cast<double>(loop_rows_), loop_seconds),
         "rows/s", 0});
    out->workload_metrics.push_back(
        {"write_bytes_per_user_byte",
         Ratio(static_cast<double>(window_.written_bytes),
               static_cast<double>(window_.inserted_raw_bytes)),
         "ratio", 0});
    return Status::OK();
  }

  Result<std::pair<double, uint64_t>> WriterReplay() override {
    std::vector<Row> rows;
    mh::Random rng(seed_);
    for (uint64_t i = 0; i < kWriterSampleRows; ++i) {
      const int64_t k = static_cast<int64_t>(i % kIngestKeys);
      rows.push_back({Value::Int(k), Value::Int(k % kIngestPartitions),
                      Value::Double(rng.Range(0, 400000) / 4.0)});
    }
    MINIHIVE_ASSIGN_OR_RETURN(const mh::ql::TableDesc* table,
                              catalog_->GetTable("ingest"));
    return TimeOrcWrite(fs_.get(), table->schema, table->compression, rows);
  }

  WriteLayers write_layers() const override { return layers_; }

 private:
  /// Fixed-length byte window at the start of the timed loop.
  struct Window {
    uint64_t start_commit = 0;
    uint64_t start_written = 0;
    uint64_t written_bytes = 0;
    uint64_t inserted_raw_bytes = 0;
    uint64_t stored_bytes = 0;
    uint64_t live_raw_bytes = 0;
    bool closed = false;
  };

  static constexpr uint64_t kRawRowBytes = 3 * 8;  // k, grp, amount

  Result<uint64_t> Statement(const std::string& sql) {
    MINIHIVE_ASSIGN_OR_RETURN(mh::ql::AstStatementPtr statement,
                              mh::ql::ParseStatement(sql));
    return ops_->Execute(*statement);
  }

  std::string InsertSql(const std::vector<int64_t>& keys) {
    std::string sql = "INSERT INTO ingest VALUES ";
    for (size_t i = 0; i < keys.size(); ++i) {
      const int64_t k = keys[i];
      const double amount = amounts_->Range(0, 400000) / 4.0;
      sql.append(i > 0 ? ", (" : "(")
          .append(std::to_string(k))
          .append(", ")
          .append(std::to_string(k % kIngestPartitions))
          .append(", ")
          .append(std::to_string(amount))
          .append(")");
      model_.Upsert(k, k % kIngestPartitions, amount);
    }
    return sql;
  }

  uint64_t LiveFiles() {
    const mh::ql::TableDesc* table = *catalog_->GetTable("ingest");
    return catalog_->Snapshot(*table)->files.size();
  }

  /// One commit (INSERT or DELETE), its compaction sweep, and the rollup
  /// when due.
  void Step(LoopRecorder* rec, Tracer* tracer, ProgramTotals* program,
            WriteLayers* layers, uint64_t request) {
    const uint64_t c = commit_++;
    if (c % kDeleteEvery == kDeletePhase) {
      const int64_t lo =
          static_cast<int64_t>(deletes_->Uniform(kIngestKeys - kDeleteSpan));
      const int64_t hi = lo + kDeleteSpan - 1;
      const uint64_t expected = model_.DeleteRange(lo, hi);
      ScopedSpan span(tracer, "request:delete", -1, request);
      const int64_t start = NowNanos();
      Result<uint64_t> deleted =
          Statement("DELETE FROM ingest WHERE k >= " + std::to_string(lo) +
                    " AND k <= " + std::to_string(hi));
      const int64_t end = NowNanos();
      tracer->Add("table_ops.delete", start, end, span.id(), request);
      if (layers != nullptr) {
        layers->delete_ms += (end - start) / 1e6;
        ++deletes_n_;
      }
      if (!deleted.ok()) {
        rec->Fail("delete", deleted.status().ToString());
      } else if (*deleted != expected) {
        rec->Fail("delete", "deleted " + std::to_string(*deleted) +
                                " rows, model says " + std::to_string(expected));
      } else {
        rec->Ok("delete", (end - start) / 1e6, false);
      }
    } else {
      std::vector<int64_t> keys;
      uint64_t upserts = 0;
      for (int i = 0; i < kBatchRows; ++i) {
        keys.push_back(order_[(cursor_++) % order_.size()]);
        if (model_.Contains(keys.back())) ++upserts;
      }
      const std::string sql = InsertSql(keys);
      const uint64_t files_before = layers != nullptr ? LiveFiles() : 0;
      ScopedSpan span(tracer, "request:insert", -1, request);
      const int64_t start = NowNanos();
      Result<mh::ql::AstStatementPtr> statement = mh::ql::ParseStatement(sql);
      const int64_t parsed = NowNanos();
      Result<uint64_t> inserted =
          statement.ok() ? ops_->Execute(**statement)
                         : Result<uint64_t>(statement.status());
      const int64_t end = NowNanos();
      tracer->Add("ql.parse_statement", start, parsed, span.id(), request);
      tracer->Add("table_ops.insert", parsed, end, span.id(), request);
      if (layers != nullptr) {
        layers->insert_ms += (end - parsed) / 1e6;
        layers->files_committed +=
            static_cast<double>(LiveFiles() - files_before);
        layers->rows_upserted += static_cast<double>(upserts);
        ++inserts_;
      }
      if (!inserted.ok()) {
        rec->Fail("insert", inserted.status().ToString());
      } else if (*inserted != keys.size()) {
        rec->Fail("insert", "inserted " + std::to_string(*inserted) + " rows");
      } else {
        rec->Ok("insert", (end - start) / 1e6, false);
        loop_rows_ += keys.size();
        if (!window_.closed) {
          window_.inserted_raw_bytes += keys.size() * kRawRowBytes;
        }
      }
    }
    {
      ScopedSpan span(tracer, "request:sweep", -1, request);
      const uint64_t written = fs_->stats().bytes_written.load();
      const int64_t start = NowNanos();
      Result<mh::ql::CompactionStats> swept = compactor_->RunOnce();
      const int64_t end = NowNanos();
      tracer->Add("compaction.run_once", start, end, span.id(), request);
      if (layers != nullptr) {
        layers->sweep_ms += (end - start) / 1e6;
        layers->bytes_rewritten +=
            static_cast<double>(fs_->stats().bytes_written.load() - written);
      }
      const uint64_t live = LiveFiles();
      min_live_files_ = std::min(min_live_files_, live);
      max_live_files_ = std::max(max_live_files_, live);
      if (swept.ok()) {
        rec->Ok("sweep", (end - start) / 1e6, false);
      } else {
        rec->Fail("sweep", swept.status().ToString());
      }
    }
    if (commit_ % kRollupEvery == 0) {
      RunQuery(driver_.get(), "rollup", kRollup, Expect(model_.Rollup()), rec,
               tracer, program, request);
    }
    if (!window_.closed &&
        commit_ == window_.start_commit + kByteWindowCommits) {
      window_.closed = true;
      window_.written_bytes =
          fs_->stats().bytes_written.load() - window_.start_written;
      const mh::ql::TableDesc* table = *catalog_->GetTable("ingest");
      window_.stored_bytes = fs_->TotalSize(table->path_prefix + "/");
      window_.live_raw_bytes = model_.size() * kRawRowBytes;
    }
  }

  const uint64_t seed_;
  std::unique_ptr<mh::dfs::FileSystem> fs_;
  std::unique_ptr<mh::ql::Catalog> catalog_;
  std::unique_ptr<mh::ql::TableOps> ops_;
  std::unique_ptr<mh::ql::CompactionManager> compactor_;
  std::unique_ptr<mh::ql::Driver> driver_;
  std::unique_ptr<mh::Random> amounts_;
  std::unique_ptr<mh::Random> deletes_;
  std::vector<int64_t> order_;
  uint64_t cursor_ = 0;
  uint64_t commit_ = 0;
  IngestModel model_;
  Window window_;
  uint64_t loop_rows_ = 0;
  uint64_t inserts_ = 0;
  uint64_t deletes_n_ = 0;
  uint64_t warmup_live_files_ = 0;
  uint64_t min_live_files_ = 0;
  uint64_t max_live_files_ = 0;
  WriteLayers layers_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestMixed(uint64_t seed) {
  return std::make_unique<IngestMixed>(seed);
}

}  // namespace perfbench
