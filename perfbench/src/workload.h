#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Pieces shared by the workload implementations: loop accounting, the
// loop clock, the Workload interface and the request helper.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "dfs/file_system.h"
#include "ql/catalog.h"
#include "ql/driver.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace mh = minihive;

/// Sample floors of one run: the p90 rule needs 100 reads, the p99 rule
/// 1000 inserts. A loop that has not reached them by its deadline keeps
/// going, up to kMaxOverrun times the requested length.
inline constexpr uint64_t kMinReads = 100;
inline constexpr uint64_t kMinInserts = 1000;
inline constexpr double kMaxOverrun = 3.0;
/// Rows each workload writes through OrcWriter for orc.write_ms.
inline constexpr uint64_t kWriterSampleRows = 50000;

/// Worker pool size: the machine's hardware threads.
int Workers();

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Thread-safe record of one closed loop: per-shape latencies, which
/// requests were reads, and failures (errors and wrong answers alike).
class LoopRecorder {
 public:
  void Ok(const std::string& shape, double ms, bool read) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    samples_[shape].push_back(ms);
    if (read) reads_.push_back(ms);
  }
  void Fail(const std::string& shape, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    ++failed_;
    if (failures_.size() < 5) failures_.push_back(shape + ": " + why);
  }
  /// Merges another recorder's counts (not its samples).
  void AddCounts(const LoopRecorder& other) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& f : other.failures_) {
      if (failures_.size() < 5) failures_.push_back(f);
    }
  }
  std::vector<double> Samples(const std::string& shape) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(shape);
    return it == samples_.end() ? std::vector<double>() : it->second;
  }
  std::vector<double> Reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }
  /// Mean over request types of each type's median latency; returns the
  /// mean and the total sample count behind it.
  std::pair<double, uint64_t> MeanOfMedians() const {
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    uint64_t n = 0;
    for (const auto& [shape, ms] : samples_) {
      sum += Median(ms).value_or(0);
      n += ms.size();
    }
    return {Ratio(sum, static_cast<double>(samples_.size())), n};
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  uint64_t reads_done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_.size();
  }
  uint64_t Count(const std::string& shape) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(shape);
    return it == samples_.end() ? 0 : it->second.size();
  }
  /// The first few failures; read once the loop's threads have finished.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<double> reads_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Program-reported numbers of the traced loop's queries, read as-is from
/// QueryResult counters and the query profile.
struct ProgramTotals {
  std::mutex mu;
  uint64_t queries = 0;
  uint64_t jobs = 0;
  double execute_ms = 0;
  double map_phase_ms = 0;
  double reduce_phase_ms = 0;
  double shuffle_sort_ms = 0;
  double local_task_ms = 0;
  uint64_t shuffled_bytes = 0;
  uint64_t map_output_records = 0;
  uint64_t reduce_input_records = 0;
  uint64_t combine_in = 0;
  uint64_t combine_out = 0;
  uint64_t task_failures = 0;
  double mapjoin_ms = 0;
  double join_ms = 0;
  double groupby_ms = 0;
  double admission_wait_ms = 0;
  double sched_wait_ms = 0;
};

/// Closed-loop clock: `Running(floor_met)` stays true until `seconds` have
/// passed and the sample floor is met, or until kMaxOverrun times `seconds`.
class LoopClock {
 public:
  explicit LoopClock(double seconds)
      : deadline_(NowNanos() + static_cast<int64_t>(seconds * 1e9)),
        hard_deadline_(NowNanos() +
                       static_cast<int64_t>(kMaxOverrun * seconds * 1e9)) {}
  bool Running(bool floor_met) const {
    const int64_t now = NowNanos();
    return now < deadline_ || (!floor_met && now < hard_deadline_);
  }

 private:
  int64_t deadline_;
  int64_t hard_deadline_;
};

// ---------------------------------------------------------------------------
// Workload interface.
// ---------------------------------------------------------------------------

/// A read shape: what the closed loop sends, and what the replay decomposes.
struct Shape {
  std::string name;
  std::string sql;
};

/// Per-layer numbers only one workload produces (writes, compaction).
struct WriteLayers {
  double insert_ms = 0;
  double delete_ms = 0;
  double files_committed = 0;
  double rows_upserted = 0;
  double sweep_ms = 0;
  double files_rewritten = 0;
  double rows_rewritten = 0;
  double bytes_rewritten = 0;
  double live_files = 0;
  double reclaim_ratio = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the system from nothing (fresh DFS, catalog, tables). Timed.
  virtual mh::Status Setup() = 0;
  /// Untimed: reference answers, long-lived clients, warm-up.
  virtual mh::Status Prepare(LoopRecorder* rec, RunOutput* out) = 0;
  /// One closed loop for `seconds`. With an enabled tracer every request
  /// gets a span and the program's profile is imported.
  virtual mh::Status Loop(double seconds, LoopRecorder* rec, Tracer* tracer,
                          ProgramTotals* program) = 0;
  virtual void SetProfiling(bool on) = 0;
  /// Read shapes, in the order the loop cycles them.
  virtual std::vector<Shape> Shapes() const = 0;
  virtual mh::ql::DriverOptions ReplayOptions() const = 0;
  virtual mh::dfs::FileSystem* fs() = 0;
  virtual mh::ql::Catalog* catalog() = 0;
  /// Table bytes on the DFS per raw byte of live rows.
  virtual double StoredBytesPerUserByte() = 0;
  /// The workload's own end-to-end metrics from an untraced loop.
  virtual mh::Status WorkloadMetrics(const LoopRecorder& rec, double loop_seconds,
                                 RunOutput* out) = 0;
  /// Writes a sample of the workload's rows through OrcWriter: returns
  /// (elapsed ms, rows).
  virtual mh::Result<std::pair<double, uint64_t>> WriterReplay() = 0;
  virtual WriteLayers write_layers() const { return {}; }
};

/// Executes `sql` on `driver` as one request of the loop: timed, traced,
/// checked by `check` (which returns an empty string when the answer is
/// right). With `program` set, the query's counters and profile are added
/// to it and its spans imported under the request span.
void RunQuery(mh::ql::Driver* driver, const std::string& shape,
              const std::string& sql,
              const std::function<std::string(const std::vector<mh::Row>&)>& check,
              LoopRecorder* rec, Tracer* tracer, ProgramTotals* program,
              uint64_t request);

/// A check accepting exactly `expected` (as a multiset, see RowsMatch).
std::function<std::string(const std::vector<mh::Row>&)> Expect(
    std::vector<mh::Row> expected);

/// Writes `rows` to a scratch ORC file and deletes it: (elapsed ms, rows).
mh::Result<std::pair<double, uint64_t>> TimeOrcWrite(
    mh::dfs::FileSystem* fs, const mh::TypePtr& schema,
    mh::codec::CompressionKind compression, const std::vector<mh::Row>& rows);

std::unique_ptr<Workload> MakeScanAgg(uint64_t seed);
std::unique_ptr<Workload> MakeJoinShuffle(uint64_t seed);
std::unique_ptr<Workload> MakeIngestMixed(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
