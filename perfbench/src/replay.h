#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "dfs/file_system.h"
#include "ql/catalog.h"
#include "ql/driver.h"
#include "trace.h"

namespace perfbench {

/// Times of one decomposition replay of a query shape, in milliseconds, plus
/// the byte and row counts the replayed scans saw. Each layer is called on
/// its own through its public entry point, so the times nest by
/// construction: the executor's run contains the map pipelines, a pipeline
/// contains its ORC scan, and a scan contains decompression and DFS reads.
struct ReplayTimes {
  double parse_ms = 0;
  double analyze_ms = 0;
  double optimize_ms = 0;
  double compile_ms = 0;
  /// PlanExecutor::Run over the compiled plan, with the workload's worker
  /// count and again with one worker (serial work, comparable with the
  /// single-threaded layer calls below).
  double execute_ms = 0;
  double execute_serial_ms = 0;
  /// vec::RunVectorizedMapPipeline over every split of every vectorizable
  /// table scan (0 when no scan of the shape is vectorized).
  double vec_pipeline_ms = 0;
  /// ORC open + drain of the vectorized scans only (the part of
  /// vec_pipeline_ms spent inside the reader).
  double vec_orc_ms = 0;
  /// OrcReader::Open and a NextBatch drain of every table-scan file, with
  /// the plan's projection and SARG; once with checksums verified and once
  /// without.
  double orc_open_ms = 0;
  double orc_scan_ms = 0;
  double orc_scan_nocrc_ms = 0;
  /// codec::DecompressUnits over the stored stream bytes those scans read
  /// (footers, indexes and the projected columns' selected index groups),
  /// and CompressToUnits of the result with the table's codec.
  double decompress_ms = 0;
  double compress_ms = 0;
  /// ReadAt of the same byte ranges.
  double read_ms = 0;
  uint64_t stored_bytes = 0;
  uint64_t decompressed_bytes = 0;
  uint64_t rows_deleted_skipped = 0;
};

/// Replays `sql` layer by layer with the planner switches of `options`.
/// Records one span per layer call under a root span named
/// "replay:<shape>" (request id `request`). Scratch output is removed.
minihive::Result<ReplayTimes> ReplayShape(minihive::dfs::FileSystem* fs,
                                          minihive::ql::Catalog* catalog,
                                          const minihive::ql::DriverOptions& options,
                                          const std::string& shape,
                                          const std::string& sql,
                                          Tracer* tracer, uint64_t request);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
