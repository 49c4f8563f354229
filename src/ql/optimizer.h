#ifndef MINIHIVE_QL_OPTIMIZER_H_
#define MINIHIVE_QL_OPTIMIZER_H_

#include "common/query_context.h"
#include "ql/analyzer.h"
#include "ql/catalog.h"

namespace minihive::ql {

/// Predicate placement, column pruning + predicate pushdown into scans.
/// First moves each conjunct of a Filter below a join into the lowest join
/// input that supplies all its columns, just before that input's
/// ReduceSink (never into the null-supplying side of a LEFT OUTER join;
/// conjuncts reading no column, a join key or a computed value stay put).
/// Then sets each TableScan's projection to the columns its pipeline
/// actually uses, and converts SARG-able filter conjuncts (col op literal)
/// into a SearchArgument the ORC reader evaluates against its statistics
/// (paper §4.2). `attach_sargs` controls SARG attachment only; placement
/// and column pruning always run (they are baseline Hive behaviour, not
/// among the paper's advancements).
Status PushdownIntoScans(PlannedQuery* plan, bool attach_sargs);

/// Converts eligible Reduce Joins into Map Joins (paper §5.1): a join side
/// whose pipeline is a plain scan(+filters) of a table smaller than
/// `threshold_bytes` becomes a hash table built in the "local task", probed
/// by the big side's map pipeline. Faithful to Hive's mechanics, conversion
/// happens "after job assembly": each converted join initially lands in its
/// own Map-only job (an explicit intermediate FileSink/TableScan break),
/// which MergeMapOnlyJobs then removes.
Status ConvertMapJoins(PlannedQuery* plan, const Catalog* catalog,
                       uint64_t threshold_bytes);

/// §5.1: merges a Map-only job into its child job when the total size of
/// the hash tables in the merged job stays under `threshold_bytes`,
/// eliminating the unnecessary Map phase that merely reloads intermediate
/// output from the DFS.
Status MergeMapOnlyJobs(PlannedQuery* plan, uint64_t threshold_bytes);

/// §4.2: answers a simple aggregation query (COUNT/MIN/MAX/SUM/AVG over an
/// unfiltered ORC table) directly from the files' statistics, without
/// scanning any data. On success fills *rows and sets *answered; leaves the
/// plan untouched otherwise. Footer reads are charged to `query`'s metrics.
Status TryAnswerFromStatistics(const PlannedQuery& plan,
                               const Catalog* catalog,
                               const QueryContext* query, bool* answered,
                               std::vector<Row>* rows);

/// §5.2: the Correlation Optimizer (YSmart-based). Detects input
/// correlations and job-flow correlations among ReduceSinkOperators,
/// removes unnecessary shuffles, and rewires the merged reduce phase with
/// Demux/Mux operators for coordinated push-based execution.
Status ApplyCorrelationOptimizer(PlannedQuery* plan);

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_OPTIMIZER_H_
