#ifndef MINIHIVE_COMMON_QUERY_CONTEXT_H_
#define MINIHIVE_COMMON_QUERY_CONTEXT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace minihive {

class MemoryBudget;

/// Cooperative cancellation flag shared between the session that owns a
/// query and every thread executing it. Cancelling is a one-way latch:
/// execution code observes it at batch boundaries and unwinds with a typed
/// kCancelled status. Thread-safe and cheap to poll (one relaxed load).
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// One statement's own I/O, cache and late-materialization counts, charged
/// directly by the sites that count them (DFS file handles, the ORC reader)
/// so EXPLAIN PROFILE stays correct beside concurrent queries. Process-wide
/// totals (FileSystem::stats(), cache stats(), the registry) are separate.
/// Like JobCounters, fields() lists every field once; the profile iterates
/// it and the static_assert below catches a field missing from it.
struct QueryMetrics {
  std::atomic<uint64_t> block_cache_hits{0};  // One lookup per DFS block.
  std::atomic<uint64_t> block_cache_misses{0};
  std::atomic<uint64_t> metadata_cache_hits{0};  // ORC tails, footers, indexes.
  std::atomic<uint64_t> metadata_cache_misses{0};
  std::atomic<uint64_t> rows_late_skipped{0};
  std::atomic<uint64_t> lazy_decodes_avoided{0};
  std::atomic<uint64_t> physical_bytes_read{0};
  std::atomic<uint64_t> cached_bytes_read{0};

  /// The session cache a field describes; reported only while installed.
  enum class CacheLevel { kNone, kBlock, kMetadata };
  struct NamedField {
    const char* name;
    std::atomic<uint64_t> QueryMetrics::*member;
    CacheLevel cache;
  };
  static constexpr std::array<NamedField, 8> fields() {
    using M = QueryMetrics;
    using C = CacheLevel;
    return {{{"block_cache_hits", &M::block_cache_hits, C::kBlock},
             {"block_cache_misses", &M::block_cache_misses, C::kBlock},
             {"metadata_cache_hits", &M::metadata_cache_hits, C::kMetadata},
             {"metadata_cache_misses", &M::metadata_cache_misses, C::kMetadata},
             {"rows_late_skipped", &M::rows_late_skipped, C::kNone},
             {"lazy_decodes_avoided", &M::lazy_decodes_avoided, C::kNone},
             {"physical_bytes_read", &M::physical_bytes_read, C::kNone},
             {"cached_bytes_read", &M::cached_bytes_read, C::kNone}}};
  }
};
static_assert(sizeof(QueryMetrics) ==
                  QueryMetrics::fields().size() * sizeof(std::atomic<uint64_t>),
              "QueryMetrics changed: update QueryMetrics::fields()");

/// Query-wide governance state threaded from the ql::Driver through the
/// engine, operator pipelines, shuffle loops and readers: a cancellation
/// token, a wall-clock deadline, the query's memory budget node, and its
/// metrics scope. The context is owned by the driver and outlives every task
/// of the query; execution code holds const pointers and only polls it (or
/// charges its metrics).
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  void set_token(std::shared_ptr<CancellationToken> token) {
    token_ = std::move(token);
  }
  const std::shared_ptr<CancellationToken>& token() const { return token_; }

  /// Arms the wall-clock deadline `timeout_millis` from now (0 disarms).
  void set_timeout_millis(int64_t timeout_millis) {
    has_deadline_ = timeout_millis > 0;
    if (has_deadline_) {
      deadline_ = Clock::now() + std::chrono::milliseconds(timeout_millis);
    }
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// The query's node in the unified memory accounting tree (see
  /// common/budget.h), or nullptr when the query runs outside a session.
  /// Consumers (map-join builds, ORC writers) charge reservations against
  /// it; the node is owned by the admission handle and outlives the query.
  void set_memory_budget(MemoryBudget* budget) { memory_budget_ = budget; }
  MemoryBudget* memory_budget() const { return memory_budget_; }

  /// The statement's metrics scope, charged through const contexts by
  /// every task attempt and shared with a map-join fallback re-run.
  QueryMetrics* metrics() const { return &metrics_; }

  /// OK while the query may keep running; kCancelled once the token fires,
  /// kDeadlineExceeded once the deadline passes. This is THE cancellation
  /// point primitive — called at row-batch boundaries, per ORC index group,
  /// per shuffle run, and between jobs, so cancellation latency is bounded
  /// by one batch of work.
  Status CheckAlive() const {
    if (token_ != nullptr && token_->cancelled()) {
      return Status::Cancelled("query cancelled by session");
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<CancellationToken> token_;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  MemoryBudget* memory_budget_ = nullptr;
  mutable QueryMetrics metrics_;
};

/// Per-task-attempt view of the governance state: the query context plus an
/// optional attempt deadline (the engine's task_timeout_millis). Execution
/// code inside a task polls this instead of the raw QueryContext so a
/// straggling attempt can be killed cooperatively and retried while the
/// query as a whole stays alive.
class TaskGovernor {
 public:
  TaskGovernor() = default;
  explicit TaskGovernor(const QueryContext* query) : query_(query) {}

  const QueryContext* query() const { return query_; }
  /// The query's metrics scope, or null for an ungoverned reader.
  QueryMetrics* metrics() const {
    return query_ != nullptr ? query_->metrics() : nullptr;
  }

  /// Arms the attempt deadline `timeout_millis` from now (<=0 disarms).
  void set_attempt_timeout_millis(int64_t timeout_millis) {
    has_attempt_deadline_ = timeout_millis > 0;
    if (has_attempt_deadline_) {
      attempt_deadline_ = QueryContext::Clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    }
  }

  /// True once the attempt deadline has passed (independent of the query
  /// state): the engine uses this to tell a straggler kill (retryable,
  /// counted in tasks_timed_out) from a dead query (not retryable).
  bool AttemptTimedOut() const {
    return has_attempt_deadline_ &&
           QueryContext::Clock::now() >= attempt_deadline_;
  }

  /// Attempt-scoped cancellation, independent of the query's token: the
  /// dispatch layer cancels a speculative duplicate once its sibling wins,
  /// while the query (and the winner's output) live on. Owned by the
  /// caller; must outlive the attempt. Null = no attempt-level cancel.
  void set_attempt_cancel(const CancellationToken* cancel) {
    attempt_cancel_ = cancel;
  }

  /// Query-level check first (cancellation beats deadlines, query deadline
  /// beats attempt deadline), then the attempt-level kills.
  Status CheckAlive() const {
    if (query_ != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(query_->CheckAlive());
    }
    if (attempt_cancel_ != nullptr && attempt_cancel_->cancelled()) {
      return Status::Cancelled("task attempt cancelled by dispatcher");
    }
    if (AttemptTimedOut()) {
      return Status::DeadlineExceeded("task attempt exceeded its deadline");
    }
    return Status::OK();
  }

 private:
  const QueryContext* query_ = nullptr;
  bool has_attempt_deadline_ = false;
  QueryContext::Clock::time_point attempt_deadline_{};
  const CancellationToken* attempt_cancel_ = nullptr;
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_QUERY_CONTEXT_H_
