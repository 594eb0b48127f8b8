#ifndef MMDB_EXEC_AGGREGATE_H_
#define MMDB_EXEC_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "storage/relation.h"
#include "storage/row_view.h"

namespace mmdb {

/// Aggregate functions supported by the §3.9 grouping machinery.
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

/// GROUP BY `group_by` with zero or more aggregates. With no aggregates the
/// result is exactly a duplicate-eliminating projection (the paper: "in
/// projection we are grouping identical tuples while in an aggregate
/// function operation we are grouping tuples with an identical partitioning
/// attribute").
struct AggregateSpec {
  struct Aggregate {
    AggFn fn = AggFn::kCount;
    int column = 0;  ///< input column (ignored for kCount)
    std::string name;
  };

  std::vector<int> group_by;
  std::vector<Aggregate> aggregates;
};

/// Diagnostics from one aggregation.
struct AggStats {
  bool one_pass = false;   ///< result built without partitioning
  int64_t partitions = 0;  ///< spill partitions when not one-pass
  int64_t groups = 0;
  double cost_seconds = 0;  ///< cost-clock delta of the aggregation itself
};

/// §3.9: hash-based aggregation. If the input (hence certainly the result)
/// fits in |M| pages a single hash pass groups everything in memory;
/// otherwise the input is hash-partitioned on the grouping attributes and
/// each partition is aggregated independently (groups never straddle
/// partitions because the partitioning is compatible with the grouping
/// hash), recursing if a partition still overflows. Groups are emitted in
/// the order of their first rows: over the whole input in one pass, and
/// partition by partition otherwise.
StatusOr<Relation> HashAggregate(const Relation& input,
                                 const AggregateSpec& spec, ExecContext* ctx,
                                 AggStats* stats = nullptr);

/// HashAggregate over rows read in place (DESIGN.md §14): AggregateRows
/// over the view. Charges, metrics, result bytes and emission order are
/// HashAggregate's on the materialized view.
StatusOr<Relation> AggregateView(const RowView& input,
                                 const AggregateSpec& spec, ExecContext* ctx,
                                 AggStats* stats = nullptr);

/// The one aggregation entry: HashAggregate and AggregateView are this
/// over a relation or a view, and the executor's root GROUP BY over its
/// block pipeline. When `input` holds at most one pass of rows
/// (max_rows()), they are folded as they arrive, a block at a time,
/// straight from their source records. Otherwise `input` is collected and
/// counted first (a pipeline breaker) and, if it still overflows, a
/// partitioned run reads a materialized copy unless the view is its whole
/// source. `stats->cost_seconds` counts the aggregation's own charges, not
/// those of a filter `input` runs as it is read.
StatusOr<Relation> AggregateRows(BlockSource* input, const AggregateSpec& spec,
                                 ExecContext* ctx, AggStats* stats = nullptr);

/// §3.9: projection with duplicate elimination — grouping identical
/// projected tuples via the same machinery.
StatusOr<Relation> ProjectDistinct(const Relation& input,
                                   const std::vector<int>& columns,
                                   ExecContext* ctx,
                                   AggStats* stats = nullptr);

}  // namespace mmdb

#endif  // MMDB_EXEC_AGGREGATE_H_
