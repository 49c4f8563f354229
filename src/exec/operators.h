#ifndef MINIHIVE_EXEC_OPERATORS_H_
#define MINIHIVE_EXEC_OPERATORS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/budget.h"
#include "common/delete_bitmap.h"
#include "common/telemetry.h"
#include "dfs/file_system.h"
#include "exec/plan.h"
#include "mr/engine.h"

namespace minihive::exec {

/// Per-operator runtime statistics, accumulated across every task of a job
/// that instantiates the operator (tasks run on worker threads, hence the
/// atomics). `nanos` is inclusive of children — the push model means a
/// parent's Process frame contains its children's work, exactly like Hive's
/// per-operator wall times.
struct OperatorStats {
  std::atomic<uint64_t> rows_in{0};
  std::atomic<uint64_t> rows_out{0};
  std::atomic<uint64_t> batches{0};  // Vectorized pipelines only.
  std::atomic<int64_t> nanos{0};
};

/// Shared per-job sink for operator statistics, keyed by OpDesc id. One
/// instance per job, handed to every task through TaskContext; operators
/// resolve their slot once at Init and then update it wait-free.
class PipelineProfile {
 public:
  OperatorStats* ForOp(const OpDesc* desc);

  struct Entry {
    int op_id = 0;
    std::string label;  // "<OpKind>#<id>".
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
    uint64_t batches = 0;
    int64_t nanos = 0;
  };
  /// Snapshot in op-id order.
  std::vector<Entry> Snapshot() const;

  /// Appends one child span per operator to `parent`, carrying the stats as
  /// attributes and the accumulated nanos as the span duration.
  void AttachToSpan(telemetry::Span* parent) const;

 private:
  mutable std::mutex mu_;
  std::map<int, std::unique_ptr<OperatorStats>> stats_;
  std::map<int, std::string> labels_;
};

/// Hashes serialized keys by their bytes; transparent, so a probe looks up
/// a std::string_view without building a std::string.
struct KeyBytesHash {
  using is_transparent = void;
  size_t operator()(std::string_view bytes) const {
    return std::hash<std::string_view>{}(bytes);
  }
};

/// A built map-join hash table: join key (serialized) -> build-value rows.
struct MapJoinHashTable {
  std::unordered_map<std::string, std::vector<Row>, KeyBytesHash,
                     std::equal_to<>>
      rows;
  uint64_t approx_bytes = 0;
  /// Charge against the query's node of the memory accounting tree (session
  /// mode). Held for the table's lifetime; released when the table dies.
  BudgetReservation reservation;
};

/// All small-side tables of one MapJoin operator, in small-side order.
using MapJoinTables = std::vector<std::shared_ptr<MapJoinHashTable>>;

/// Serializes a key row into a canonical byte string for hash join /
/// aggregation table keys (NULL-safe and type-tagged).
std::string SerializeKey(const Row& key);

/// Names a task's committed sink output under a sink path prefix.
std::string FinalPartName(const std::string& prefix,
                          const std::string& task_suffix);
/// Names the attempt-scoped file a task attempt writes. The engine's commit
/// hook renames it to FinalPartName on success; its abort hook deletes it on
/// failure, so partial output from a failed attempt is never visible.
std::string AttemptPartName(const std::string& prefix,
                            const std::string& task_suffix, int attempt);

/// Per-task runtime context handed to every operator at Init.
struct TaskContext {
  dfs::FileSystem* fs = nullptr;
  /// Unique suffix for output files ("m-3", "r-0", ...).
  std::string task_suffix;
  /// 0-based task attempt; sink outputs are scoped by it.
  int attempt = 0;
  /// Shuffle emitter (map tasks of jobs with reducers).
  mr::ShuffleEmitter* emitter = nullptr;
  /// Pre-built map-join tables, keyed by MapJoin OpDesc id. Built once per
  /// job (Hive's "local task") and shared read-only across tasks.
  const std::unordered_map<int, std::shared_ptr<MapJoinTables>>*
      mapjoin_tables = nullptr;
  int reader_host = -1;
  /// Per-operator profiling sink (EnableProfiling). Null = profiling off:
  /// the per-row cost is then a single predictable branch.
  PipelineProfile* profile = nullptr;
  /// Attempt-local job counters; the pipeline that reads the split reports
  /// input records here (the engine cannot see them otherwise).
  mr::JobCounters* counters = nullptr;
  /// Lifecycle governor for this task attempt (cancellation + deadlines).
  /// The pipeline driver polls it at row/batch boundaries; readers check it
  /// per index group. Null = ungoverned.
  const TaskGovernor* governor = nullptr;
  /// Two-phase late-materialized vectorized ORC scans (filter columns
  /// first, lazy columns only for surviving groups).
  bool enable_late_materialization = true;
  /// Merge-on-read delete bitmaps of the scanned source, keyed by file
  /// path (mutable unique-key tables). Readers drop marked rows inside the
  /// scan; null or no entry = no deletions for that file.
  const DeleteBitmapMap* delete_bitmaps = nullptr;
};

/// Base runtime operator. The push-based model from Hive: parents call
/// Process on children; group-boundary signals propagate the same way
/// (paper §5.2.2).
///
/// Process is a non-virtual wrapper so profiling (rows in / inclusive
/// nanos) instruments every operator uniformly; subclasses implement
/// DoProcess. With profiling off the wrapper is one null-check.
class Operator {
 public:
  explicit Operator(const OpDesc* desc) : desc_(desc) {}
  virtual ~Operator() = default;

  const OpDesc* desc() const { return desc_; }
  void AddChild(Operator* child) { children_.push_back(child); }

  /// Called once per task before any rows.
  virtual Status Init(TaskContext* ctx);

  Status Process(const Row& row, int tag) {
    if (stats_ == nullptr) return DoProcess(row, tag);
    stats_->rows_in.fetch_add(1, std::memory_order_relaxed);
    int64_t start = telemetry::MonotonicNanos();
    Status s = DoProcess(row, tag);
    stats_->nanos.fetch_add(telemetry::MonotonicNanos() - start,
                            std::memory_order_relaxed);
    return s;
  }

  virtual Status StartGroup();
  virtual Status EndGroup();
  /// End of task: flush state, then propagate.
  virtual Status Finish();

 protected:
  virtual Status DoProcess(const Row& row, int tag) = 0;

  Status ForwardRow(const Row& row, int tag = 0) {
    if (stats_ != nullptr) {
      stats_->rows_out.fetch_add(1, std::memory_order_relaxed);
    }
    for (Operator* child : children_) {
      MINIHIVE_RETURN_IF_ERROR(child->Process(row, tag));
    }
    return Status::OK();
  }

  const OpDesc* desc_;
  std::vector<Operator*> children_;
  TaskContext* ctx_ = nullptr;
  OperatorStats* stats_ = nullptr;  // Null when profiling is off.
  bool init_done_ = false;
};

/// Owns the runtime operators of one task's pipeline.
class OperatorArena {
 public:
  Operator* Add(std::unique_ptr<Operator> op) {
    operators_.push_back(std::move(op));
    return operators_.back().get();
  }

 private:
  std::vector<std::unique_ptr<Operator>> operators_;
};

/// Instantiates the runtime tree for the plan subtree rooted at `desc`.
/// Shared descriptors (DAG joins like Mux) become one runtime instance.
/// Returns the runtime root. When `built` is non-null, every descriptor's
/// runtime instance is recorded there (testing/debug hook; Mux descriptors
/// map to the shared core, not the per-edge proxies).
Result<Operator*> BuildOperatorTree(
    const OpDesc* desc, OperatorArena* arena,
    std::unordered_map<const OpDesc*, Operator*>* built = nullptr);

/// Builds the hash tables for one MapJoin descriptor by scanning its small
/// tables (Hive's local task). `resolve` maps a table name to its storage
/// (paths / format / schema); supplied by the query layer.
struct SmallTableSource {
  std::vector<std::string> paths;
  formats::FormatKind format = formats::FormatKind::kTextFile;
  TypePtr schema;
  /// Delete bitmaps by file path (mutable tables): deleted rows must not
  /// enter a map-join build side any more than a scan.
  DeleteBitmapMap delete_bitmaps;
};
using TableResolver =
    std::function<Result<SmallTableSource>(const std::string&)>;

/// `memory_budget_bytes` caps the cumulative approximate size of all hash
/// tables built for the operator (0 = unlimited): exceeding it fails the
/// build with a typed ResourceExhausted, the signal the driver uses to fall
/// back to the reduce-join backup plan instead of retrying. `query` (may be
/// null) is polled while scanning so a cancelled query stops the build.
Result<std::shared_ptr<MapJoinTables>> BuildMapJoinTables(
    dfs::FileSystem* fs, const OpDesc& desc, const TableResolver& resolve,
    const QueryContext* query = nullptr, uint64_t memory_budget_bytes = 0);

}  // namespace minihive::exec

#endif  // MINIHIVE_EXEC_OPERATORS_H_
