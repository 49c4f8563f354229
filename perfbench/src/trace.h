#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds; the time base of every span.
int64_t NowNanos();

/// One recorded span. `parent` is the index of the enclosing span in the
/// tracer, or -1 for a root; spans of one request share `request`.
struct SpanRecord {
  std::string name;
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span store for the traced run. Spans are recorded by the
/// benchmark around its calls into each layer and written out once at the
/// end. A disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(std::string name, int64_t parent, uint64_t request);
  void End(int64_t id);
  /// Records an already-measured interval.
  int64_t Add(std::string name, int64_t start_nanos, int64_t end_nanos,
              int64_t parent, uint64_t request);

  /// Snapshot of every span recorded so far.
  std::vector<SpanRecord> Spans() const;

  /// Writes the spans as a JSON array of
  /// {"name","start_ns","end_ns","parent","request","self_ns"} objects.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent,
             uint64_t request)
      : tracer_(tracer),
        id_(tracer->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<int64_t> SelfNanos(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
