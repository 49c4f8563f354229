#include "workload.h"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "checks.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "orc/writer.h"

namespace perfbench {

using mh::Result;
using mh::Row;
using mh::Status;

int Workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

/// Numeric attribute of a span as rendered in `json` (its WriteJson form:
/// attributes are only reachable through it); 0 when absent.
double AttrNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Copies the program's span tree under `parent` as "program:<name>" spans
/// and folds operator times into `totals`. Operator spans carry summed
/// per-operator time rather than an interval, so they feed the totals only.
void ImportProfile(const mh::telemetry::Span& span, int64_t parent,
                   uint64_t request, Tracer* tracer, ProgramTotals* totals) {
  const std::string& name = span.name();
  if (name.rfind("op:", 0) == 0) {
    const double ms = span.duration_nanos() / 1e6;
    if (name.rfind("op:MAPJOIN", 0) == 0) totals->mapjoin_ms += ms;
    if (name.rfind("op:JOIN", 0) == 0) totals->join_ms += ms;
    if (name.rfind("op:GBY", 0) == 0) totals->groupby_ms += ms;
    return;
  }
  if (name == "execute") totals->execute_ms += span.duration_nanos() / 1e6;
  const int64_t end =
      span.ended() ? span.end_nanos() : span.start_nanos() + span.duration_nanos();
  const int64_t id =
      tracer->Add("program:" + name, span.start_nanos(), end, parent, request);
  for (const mh::telemetry::Span* child : span.children()) {
    ImportProfile(*child, id, request, tracer, totals);
  }
}

void AddProgramResult(const mh::ql::QueryResult& result, int64_t parent,
                      uint64_t request, Tracer* tracer, ProgramTotals* t) {
  mh::json::Writer writer;
  if (result.profile != nullptr) {
    result.profile->WriteJson(&writer, /*include_timing=*/false);
  }
  std::lock_guard<std::mutex> lock(t->mu);
  const mh::mr::JobCounters& c = result.counters;
  ++t->queries;
  t->jobs += static_cast<uint64_t>(result.num_jobs);
  t->map_phase_ms += c.map_phase_millis;
  t->reduce_phase_ms += c.reduce_phase_millis;
  t->shuffle_sort_ms += c.shuffle_sort_millis();
  t->local_task_ms += c.local_task_millis();
  t->shuffled_bytes += c.shuffled_bytes.load();
  t->map_output_records += c.map_output_records.load();
  t->reduce_input_records += c.reduce_input_records.load();
  t->combine_in += c.combine_input_records.load();
  t->combine_out += c.combine_output_records.load();
  t->task_failures += c.map_task_failures.load() +
                      c.reduce_task_failures.load() +
                      c.local_task_failures.load();
  if (result.profile != nullptr) {
    t->admission_wait_ms +=
        AttrNumber(writer.str(), "admission_queue_wait_millis");
    t->sched_wait_ms += AttrNumber(writer.str(), "sched_queue_wait_millis");
    ImportProfile(*result.profile, parent, request, tracer, t);
  }
}

}  // namespace

/// Executes `sql` on `driver` as one request of the loop: timed, traced,
/// checked by `check` (which returns an empty string when the answer is
/// right).
void RunQuery(mh::ql::Driver* driver, const std::string& shape,
              const std::string& sql,
              const std::function<std::string(const std::vector<Row>&)>& check,
              LoopRecorder* rec, Tracer* tracer, ProgramTotals* program,
              uint64_t request) {
  ScopedSpan span(tracer, "request:" + shape, -1, request);
  const int64_t start = NowNanos();
  Result<mh::ql::QueryResult> result = driver->Execute(sql);
  const double ms = (NowNanos() - start) / 1e6;
  if (!result.ok()) {
    rec->Fail(shape, result.status().ToString());
    return;
  }
  if (program != nullptr) {
    AddProgramResult(*result, span.id(), request, tracer, program);
  }
  const std::string why = check(result->rows);
  if (!why.empty()) {
    rec->Fail(shape, why);
    return;
  }
  rec->Ok(shape, ms, true);
}

std::function<std::string(const std::vector<Row>&)> Expect(
    std::vector<Row> expected) {
  return [expected = std::move(expected)](const std::vector<Row>& actual) {
    std::string why;
    return RowsMatch(expected, actual, &why) ? std::string() : why;
  };
}

Result<std::pair<double, uint64_t>> TimeOrcWrite(
    mh::dfs::FileSystem* fs, const mh::TypePtr& schema,
    mh::codec::CompressionKind compression, const std::vector<Row>& rows) {
  static std::atomic<int> counter{0};
  const std::string path =
      "/tmp/perfbench-write-" + std::to_string(counter.fetch_add(1));
  mh::orc::OrcWriterOptions options;
  options.compression = compression;
  mh::Stopwatch watch;
  MINIHIVE_ASSIGN_OR_RETURN(auto writer,
                            mh::orc::OrcWriter::Create(fs, path, schema, options));
  for (const Row& row : rows) MINIHIVE_RETURN_IF_ERROR(writer->AddRow(row));
  MINIHIVE_RETURN_IF_ERROR(writer->Close());
  const double ms = watch.ElapsedMillis();
  fs->Delete(path).ok();
  return std::make_pair(ms, static_cast<uint64_t>(rows.size()));
}


}  // namespace perfbench
