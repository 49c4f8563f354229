#include "mr/engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "common/stopwatch.h"
#include "mr/transport.h"

namespace minihive::mr {

namespace {

struct ShuffleRecord {
  Row key;
  Row value;
  int tag;
};

/// Compares by full key (honouring per-column sort direction), breaking
/// ties by tag so a reduce group sees its sources in deterministic tag
/// order (as Hive's shuffle does).
struct ShuffleLess {
  const std::vector<bool>* ascending;  // May be empty.
  bool operator()(const ShuffleRecord& a, const ShuffleRecord& b) const {
    size_t n = std::min(a.key.size(), b.key.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a.key[i].Compare(b.key[i]);
      if (c != 0) {
        bool asc = i >= ascending->size() || (*ascending)[i];
        return asc ? c < 0 : c > 0;
      }
    }
    if (a.key.size() != b.key.size()) return a.key.size() < b.key.size();
    return a.tag < b.tag;
  }
};

bool SameKey(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

/// Collects one map task's shuffle output, hash-partitioned. After the map
/// task finishes, each partition's records are sorted in place (and
/// optionally combined) so the reduce side only has to merge.
class PartitionedEmitter : public ShuffleEmitter {
 public:
  PartitionedEmitter(int num_partitions, JobCounters* counters)
      : partitions_(num_partitions), counters_(counters) {
    // Shuffle runs grow record by record; start them off the small-size
    // doubling treadmill.
    for (auto& run : partitions_) run.reserve(64);
  }

  Status Emit(Row key, Row value, int tag) override {
    uint64_t hash = HashRowAllCols(key);
    size_t partition = partitions_.empty() ? 0 : hash % partitions_.size();
    counters_->map_output_records += 1;
    partitions_[partition].push_back(
        {std::move(key), std::move(value), tag});
    return Status::OK();
  }

  std::vector<std::vector<ShuffleRecord>>& partitions() { return partitions_; }

 private:
  std::vector<std::vector<ShuffleRecord>> partitions_;
  JobCounters* counters_;
};

/// Shuffle emitter handed to a combiner: captures its output so it can
/// replace the run being combined.
class CollectingEmitter : public ShuffleEmitter {
 public:
  Status Emit(Row key, Row value, int tag) override {
    records_.push_back({std::move(key), std::move(value), tag});
    return Status::OK();
  }

  std::vector<ShuffleRecord>& records() { return records_; }

 private:
  std::vector<ShuffleRecord> records_;
};

/// Drives `reduce` (a ReduceTask-protocol consumer) over records delivered
/// in (key, tag) order, inserting group-boundary signals at key changes.
/// `next` yields the next record or nullptr when exhausted.
template <typename NextFn>
Status DriveGroups(ReduceTask* reduce, NextFn&& next,
                   const TaskGovernor& governor) {
  bool group_open = false;
  Row current_key;
  uint64_t records_seen = 0;
  for (const ShuffleRecord* record = next(); record != nullptr;
       record = next()) {
    // Cancellation point: cheap enough to keep per-record cost negligible,
    // frequent enough that a dead query stops within one batch of records.
    if ((++records_seen & 511u) == 0) {
      MINIHIVE_RETURN_IF_ERROR(governor.CheckAlive());
    }
    if (!group_open || !SameKey(current_key, record->key)) {
      if (group_open) {
        MINIHIVE_RETURN_IF_ERROR(reduce->EndGroup());
      }
      MINIHIVE_RETURN_IF_ERROR(reduce->StartGroup(record->key));
      group_open = true;
      current_key = record->key;
    }
    MINIHIVE_RETURN_IF_ERROR(
        reduce->Reduce(record->key, record->value, record->tag));
  }
  if (group_open) {
    MINIHIVE_RETURN_IF_ERROR(reduce->EndGroup());
  }
  return reduce->Finish();
}

/// Map-side run formation: sorts every partition run of one map task's
/// output, folds each sorted run through the combiner (when configured),
/// and accounts the post-combine records as the task's shuffled bytes.
Status SortAndCombineRuns(PartitionedEmitter* emitter, const JobConfig& job,
                          JobCounters* counters,
                          const TaskGovernor& governor) {
  Stopwatch sort_watch;
  ShuffleLess less{&job.sort_ascending};
  for (auto& run : emitter->partitions()) {
    MINIHIVE_RETURN_IF_ERROR(governor.CheckAlive());
    if (run.empty()) continue;
    std::sort(run.begin(), run.end(), less);
    if (job.combiner_factory) {
      CollectingEmitter combined;
      std::unique_ptr<ReduceTask> combiner = job.combiner_factory(&combined);
      size_t pos = 0;
      MINIHIVE_RETURN_IF_ERROR(
          DriveGroups(combiner.get(), [&]() -> const ShuffleRecord* {
            return pos < run.size() ? &run[pos++] : nullptr;
          }, governor));
      counters->combine_input_records += run.size();
      counters->combine_output_records += combined.records().size();
      run = std::move(combined.records());
    }
    uint64_t run_bytes = 0;
    for (const ShuffleRecord& record : run) {
      run_bytes += EstimateRowBytes(record.key) + EstimateRowBytes(record.value);
    }
    counters->shuffled_bytes += run_bytes;
  }
  counters->shuffle_sort_nanos += static_cast<int64_t>(
      sort_watch.ElapsedMillis() * 1e6);
  return Status::OK();
}

/// Reduce-side k-way merge of one partition's per-map sorted runs: a binary
/// heap of cursors reading the runs in place (no second copy of the
/// partition), O(N log M) for M runs.
class RunMerger {
 public:
  RunMerger(const std::vector<std::unique_ptr<PartitionedEmitter>>& emitters,
            int partition, const std::vector<bool>* ascending)
      : after_{ShuffleLess{ascending}} {
    heap_.reserve(emitters.size());
    for (size_t m = 0; m < emitters.size(); ++m) {
      if (!emitters[m]) continue;
      const auto& run = emitters[m]->partitions()[partition];
      if (run.empty()) continue;
      total_ += run.size();
      heap_.push_back({&run, 0, static_cast<int>(m)});
    }
    std::make_heap(heap_.begin(), heap_.end(), after_);
  }

  /// Records across all runs.
  size_t total() const { return total_; }

  /// The next record in (key, tag, map task) order; nullptr once drained.
  const ShuffleRecord* Next() {
    if (heap_.empty()) return nullptr;
    std::pop_heap(heap_.begin(), heap_.end(), after_);
    Cursor& cursor = heap_.back();
    const ShuffleRecord* record = &cursor.record();
    if (++cursor.pos < cursor.run->size()) {
      std::push_heap(heap_.begin(), heap_.end(), after_);
    } else {
      heap_.pop_back();
    }
    return record;
  }

 private:
  struct Cursor {
    const std::vector<ShuffleRecord>* run;
    size_t pos;
    int run_index;  // Map task index: the tie-break, for determinism.
    const ShuffleRecord& record() const { return (*run)[pos]; }
  };
  // `after(a, b)` == "a merges after b": a min-heap via the inverted
  // comparator of std::make_heap/push_heap (which build max-heaps).
  struct After {
    ShuffleLess less;
    bool operator()(const Cursor& a, const Cursor& b) const {
      if (less(b.record(), a.record())) return true;
      if (less(a.record(), b.record())) return false;
      return b.run_index < a.run_index;
    }
  };

  After after_;
  std::vector<Cursor> heap_;
  size_t total_ = 0;
};

/// Runs `count` tasks on up to `workers` threads; collects the first error.
Status RunParallel(int count, int workers,
                   const std::function<Status(int)>& task) {
  if (count == 0) return Status::OK();
  workers = std::max(1, std::min(workers, count));
  std::atomic<int> next{0};
  std::mutex error_mutex;
  Status first_error;
  auto worker = [&]() {
    while (true) {
      int index = next.fetch_add(1);
      if (index >= count) return;
      Status status = task(index);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = status;
      }
    }
  };
  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    for (int i = 0; i < workers; ++i) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  return first_error;
}

std::string KindName(TaskKind kind) {
  return kind == TaskKind::kMap ? "map" : "reduce";
}

/// The job-level error for a task that ran out of attempts.
Status TaskFailed(TaskKind kind, int index, int attempts, const Status& last) {
  return Status(last.code(), KindName(kind) + " task " +
                                 std::to_string(index) + " failed after " +
                                 std::to_string(attempts) +
                                 " attempts: " + last.message());
}

/// What a successful attempt hands back: its attempt-local counters and,
/// for a map, its sorted (and combined) partition runs.
struct AttemptProduct {
  JobCounters counters;
  std::unique_ptr<PartitionedEmitter> emitter;
};

/// One job's execution state: the task-attempt body, the two per-task
/// runners, and the winning map runs the reduce phase merges. Both modes
/// run the same attempt body; they differ only in who retries it.
///
/// With a dispatcher, every attempt goes through the DispatchCoordinator
/// (retries with backoff, speculative duplicates, local fallback) and the
/// transport's workers run RunAttempt. Each successful attempt parks its
/// product under (kind, index, attempt); only the winning attempt's is
/// folded into the job, so records and counters merge exactly once per
/// logical task however many executions ran (message duplication,
/// committed-but-lost responses, speculative duplicates).
class JobExecution {
 public:
  JobExecution(const JobConfig& job, JobCounters* counters,
               telemetry::Span* job_span, DispatchCoordinator* dispatcher)
      : job_(job),
        counters_(counters),
        job_span_(job_span),
        dispatcher_(dispatcher),
        job_id_(dispatcher != nullptr ? dispatcher->NewJobId() : 0),
        emitters_(job.splits.size()) {
    if (dispatcher_ != nullptr) {
      dispatcher_->StartJob(
          job_id_,
          [this](const TaskRequest& request, const CancellationToken* cancel) {
            return Execute(request, cancel);
          });
    }
  }
  /// The JobGuard drain: no dispatched execution outlives the products, the
  /// map runs or the executor, on every exit path.
  ~JobExecution() {
    if (dispatcher_ != nullptr) dispatcher_->EndJob(job_id_);
  }
  JobExecution(const JobExecution&) = delete;
  JobExecution& operator=(const JobExecution&) = delete;

  /// Dead-query check, at phase boundaries and between attempts.
  Status QueryStatus() const {
    return job_.query_ctx != nullptr ? job_.query_ctx->CheckAlive()
                                     : Status::OK();
  }

  /// Runs one task until an attempt succeeds, its attempts run out, or the
  /// query dies.
  Status RunTask(TaskKind kind, int index) {
    return dispatcher_ != nullptr ? RunDispatched(kind, index)
                                  : RunLocal(kind, index);
  }

 private:
  /// One task attempt under its own governor: run the map task and form its
  /// sorted (and combined) runs, or k-way merge the partition's runs into
  /// the reduce task; then commit, or abort on any failure. `cancel` is the
  /// dispatcher's kill switch for this attempt (null in local mode).
  /// Counters stay attempt-local, so a failed or duplicate attempt never
  /// reaches the job's totals; on success they come back in the product.
  Result<AttemptProduct> RunAttempt(TaskKind kind, int index, int attempt,
                                    const CancellationToken* cancel) {
    const JobConfig& job = job_;
    const bool is_map = kind == TaskKind::kMap;
    ThreadCpuTimer cpu;
    TaskGovernor governor(job.query_ctx);
    governor.set_attempt_timeout_millis(job.task_timeout_millis);
    governor.set_attempt_cancel(cancel);
    telemetry::Span* span =
        job_span_ != nullptr
            ? job_span_->StartChild(KindName(kind) + "[" +
                                    std::to_string(index) + "]")
            : nullptr;
    AttemptProduct product;
    JobCounters& local = product.counters;
    Status s;
    if (is_map) {
      product.emitter = std::make_unique<PartitionedEmitter>(
          std::max(job.num_reducers, 1), &local);
      std::unique_ptr<MapTask> task = job.map_factory();
      task->set_attempt_counters(&local);
      task->set_governor(&governor);
      s = task->Run(job.splits[index], index, attempt, product.emitter.get());
    } else {
      RunMerger merger(emitters_, index, &job.sort_ascending);
      local.reduce_input_records += merger.total();
      std::unique_ptr<ReduceTask> task = job.reduce_factory(index, attempt);
      s = DriveGroups(task.get(), [&merger] { return merger.Next(); },
                      governor);
    }
    // A task that never polls its governor is still caught here: a late
    // kill, but deterministic — the attempt can't commit past its deadline.
    if (s.ok()) s = governor.CheckAlive();
    // Run formation stays on the worker thread, where the expensive sort
    // work is cheap and parallel.
    if (s.ok() && is_map && job.num_reducers > 0) {
      s = SortAndCombineRuns(product.emitter.get(), job, &local, governor);
    }
    if (s.ok() && job.commit_task) s = job.commit_task(kind, index, attempt);
    if (span != nullptr) {
      span->SetAttr("attempt", static_cast<int64_t>(attempt));
      if (is_map) {
        span->SetAttr("split", job.splits[index].path);
        span->SetAttr("records_in", local.map_input_records.load());
        span->SetAttr("records_out", local.map_output_records.load());
      } else {
        span->SetAttr("records_in", local.reduce_input_records.load());
      }
      if (!s.ok()) span->SetAttr("error", s.ToString());
      span->End();
    }
    if (!s.ok()) {
      if (job.abort_task) job.abort_task(kind, index, attempt);
      return s;
    }
    local.cpu_nanos += cpu.ElapsedNanos();
    return product;
  }

  /// Folds a task's winning attempt into the job. Thread-safe across
  /// distinct tasks.
  void Accept(TaskKind kind, int index, AttemptProduct product) {
    product.counters.AccumulateTaskLocalInto(counters_);
    if (kind == TaskKind::kMap) emitters_[index] = std::move(product.emitter);
  }

  /// Local mode: retries immediately, up to max_task_attempts, and stops at
  /// once when the query is dead (not a task failure, never retried).
  Status RunLocal(TaskKind kind, int index) {
    const int max_attempts = std::max(1, job_.max_task_attempts);
    Status last;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      MINIHIVE_RETURN_IF_ERROR(QueryStatus());
      Stopwatch attempt_watch;
      Result<AttemptProduct> product =
          RunAttempt(kind, index, attempt, /*cancel=*/nullptr);
      if (product.ok()) {
        Accept(kind, index, std::move(*product));
        if (kind == TaskKind::kReduce) {
          // Release this partition's runs only after a successful attempt
          // (a retry merges them again); the job may hold many partitions.
          for (const auto& emitter : emitters_) {
            if (emitter) {
              auto& run = emitter->partitions()[index];
              run.clear();
              run.shrink_to_fit();
            }
          }
        }
        return Status::OK();
      }
      last = product.status();
      MINIHIVE_RETURN_IF_ERROR(QueryStatus());
      const double elapsed_millis = attempt_watch.ElapsedMillis();
      (kind == TaskKind::kMap ? counters_->map_task_failures
                              : counters_->reduce_task_failures) += 1;
      // A straggler kill (the attempt outlived its deadline) is counted,
      // then retried like any failure.
      if (job_.task_timeout_millis > 0 &&
          elapsed_millis >= job_.task_timeout_millis) {
        counters_->tasks_timed_out += 1;
      }
      counters_->retried_task_nanos +=
          static_cast<int64_t>(elapsed_millis * 1e6);
    }
    return TaskFailed(kind, index, max_attempts, last);
  }

  /// Dispatched mode: the coordinator retries; the engine folds in the
  /// winning attempt's product. Unlike local mode, partition runs are NOT
  /// freed after a reduce task succeeds: an abandoned duplicate execution
  /// may still be merging them on a worker thread. They go with this
  /// object, after the destructor has drained every execution.
  Status RunDispatched(TaskKind kind, int index) {
    DispatchOutcome outcome = dispatcher_->RunTask(
        job_id_, job_.name, kind, index,
        kind == TaskKind::kMap ? job_.splits[index] : InputSplit(),
        job_.max_task_attempts, job_.query_ctx);
    counters_->transport_dispatches += outcome.dispatches;
    counters_->transport_retries += outcome.retries;
    counters_->transport_rpc_timeouts += outcome.timeouts;
    counters_->speculative_launches += outcome.speculative_launches;
    if (outcome.speculative_won) counters_->speculative_wins += 1;
    counters_->speculative_losses += outcome.speculative_losses;
    if (outcome.ran_local_fallback) counters_->transport_fallbacks += 1;
    (kind == TaskKind::kMap ? counters_->map_task_failures
                            : counters_->reduce_task_failures) +=
        outcome.failures;
    counters_->tasks_timed_out += outcome.timeouts;
    counters_->retried_task_nanos += outcome.retried_nanos;
    if (!outcome.status.ok()) {
      MINIHIVE_RETURN_IF_ERROR(QueryStatus());
      return TaskFailed(kind, index, outcome.failures, outcome.status);
    }
    AttemptProduct product;
    {
      std::lock_guard<std::mutex> lock(products_mu_);
      auto it = products_.find({kind, index, outcome.winning_attempt});
      if (it == products_.end()) {
        return Status::Internal(
            KindName(kind) + " task " + std::to_string(index) +
            ": winning attempt " + std::to_string(outcome.winning_attempt) +
            " left no result");
      }
      product = std::move(it->second);
      products_.erase(it);
    }
    Accept(kind, index, std::move(product));
    return Status::OK();
  }

  /// The registered executor: one decoded request in, one attempt out. Runs
  /// on transport worker threads, inline for LocalTransport, and on launch
  /// threads for the local fallback.
  Status Execute(const TaskRequest& request, const CancellationToken* cancel) {
    // The request crossed the transport: validate it before indexing.
    const bool is_map = request.kind == TaskKind::kMap;
    const int count =
        is_map ? static_cast<int>(job_.splits.size()) : job_.num_reducers;
    if (request.task_index < 0 || request.task_index >= count) {
      return Status::InvalidArgument(
          std::string(is_map ? "map task index" : "reduce partition") +
          " out of range: " + std::to_string(request.task_index));
    }
    Result<AttemptProduct> product = RunAttempt(
        request.kind, request.task_index, request.attempt, cancel);
    if (!product.ok()) return product.status();
    std::lock_guard<std::mutex> lock(products_mu_);
    products_[{request.kind, request.task_index, request.attempt}] =
        std::move(*product);
    return Status::OK();
  }

  const JobConfig& job_;
  JobCounters* counters_;
  telemetry::Span* job_span_;
  DispatchCoordinator* dispatcher_;  // Null in local mode.
  const uint64_t job_id_;
  // Winning map attempts' runs, one slot per map task; read-only during
  // the reduce phase.
  std::vector<std::unique_ptr<PartitionedEmitter>> emitters_;
  std::mutex products_mu_;
  std::map<std::tuple<TaskKind, int, int>, AttemptProduct> products_;
};

}  // namespace

Engine::Engine(dfs::FileSystem* fs, EngineOptions options)
    : fs_(fs), options_(options) {}

Status Engine::RunTasks(int count, const std::function<Status(int)>& fn) {
  if (options_.scheduler != nullptr && options_.scheduler_queue != nullptr) {
    return options_.scheduler->RunParallel(options_.scheduler_queue, count,
                                           fn);
  }
  return RunParallel(count, options_.num_workers, fn);
}

Status Engine::RunJob(const JobConfig& job, JobCounters* counters) {
  // Tracing: one span per job, one per task attempt. Spans are opened from
  // worker threads (StartChild is thread-safe); the job's counters fold
  // into the job span as attributes once the phases complete.
  telemetry::Span* job_span =
      job.parent_span != nullptr
          ? job.parent_span->StartChild("job:" + job.name)
          : nullptr;
  if (options_.job_startup_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.job_startup_ms));
  }
  counters->map_tasks = static_cast<int>(job.splits.size());
  counters->reduce_tasks = job.num_reducers;

  Status status;
  {
    JobExecution execution(job, counters, job_span, options_.dispatcher);
    // One phase: a dead-query check at its boundary, then every task fanned
    // out through the mode's per-task runner. A dead query is counted once
    // per job: tasks that die of the same cause inside a phase do not
    // re-bump the counter.
    auto run_phase = [&](TaskKind kind, int count,
                         double* phase_millis) -> Status {
      Stopwatch watch;
      Status s = execution.QueryStatus();
      if (s.ok()) {
        s = RunTasks(count, [&](int index) {
          return execution.RunTask(kind, index);
        });
      }
      if (s.ok()) {
        *phase_millis = watch.ElapsedMillis();
      } else if (!execution.QueryStatus().ok()) {
        counters->queries_cancelled += 1;
      }
      return s;
    };
    if (job.num_reducers > 0 && !job.reduce_factory &&
        execution.QueryStatus().ok()) {
      status =
          Status::InvalidArgument("job has reducers but no reduce factory");
    } else {
      // The reduce phase starts only after the whole map phase finishes.
      status = run_phase(TaskKind::kMap, static_cast<int>(job.splits.size()),
                         &counters->map_phase_millis);
      if (status.ok() && job.num_reducers > 0) {
        status = run_phase(TaskKind::kReduce, job.num_reducers,
                           &counters->reduce_phase_millis);
      }
    }
  }
  if (job_span != nullptr) {
    counters->ExportToSpan(job_span);
    if (!status.ok()) job_span->SetAttr("error", status.ToString());
    job_span->End();
  }
  return status;
}

Result<std::vector<InputSplit>> ComputeSplits(
    dfs::FileSystem* fs, const std::vector<std::string>& paths,
    uint64_t split_size, int source_tag) {
  std::vector<InputSplit> splits;
  for (const std::string& path : paths) {
    MINIHIVE_ASSIGN_OR_RETURN(uint64_t size, fs->FileSize(path));
    if (size == 0) continue;
    auto file_result = fs->Open(path);
    for (uint64_t offset = 0; offset < size; offset += split_size) {
      InputSplit split;
      split.path = path;
      split.offset = offset;
      split.length = std::min(split_size, size - offset);
      split.source_tag = source_tag;
      if (file_result.ok()) {
        auto locations = (*file_result)->GetBlockLocations(offset, 1);
        if (!locations.empty() && !locations[0].hosts.empty()) {
          split.locality_host = locations[0].hosts[0];
        }
      }
      splits.push_back(std::move(split));
    }
  }
  return splits;
}

uint64_t EstimateRowBytes(const Row& row) {
  uint64_t total = 0;
  for (const Value& v : row) {
    if (v.is_null()) {
      total += 1;
    } else if (v.is_int() || v.is_double()) {
      total += 8;
    } else if (v.is_string()) {
      total += 4 + v.AsString().size();
    } else {
      total += 16;  // Complex values: coarse estimate.
    }
  }
  return total;
}

}  // namespace minihive::mr
