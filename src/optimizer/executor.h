#ifndef MMDB_OPTIMIZER_EXECUTOR_H_
#define MMDB_OPTIMIZER_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "optimizer/catalog.h"
#include "optimizer/plan.h"

namespace mmdb {

/// Serves IndexScan plan nodes: the ordinals of the records of `table`
/// (the catalog's resident relation) that satisfy `pred`, an equality or
/// prefix restriction on an indexed column, in the index's order. The
/// executor reads those records in place. Implemented by Database over its
/// AVL / B+-tree / hash indexes; plans executed without a provider fall
/// back to scan + filter.
class IndexProvider {
 public:
  virtual ~IndexProvider() = default;
  /// Implementations charge the lookup's CPU work to `clock`, the
  /// executing statement's (their own when null), so concurrently
  /// executing statements never share an unsynchronized clock.
  virtual StatusOr<std::vector<int64_t>> IndexOrdinals(
      const std::string& table, const Predicate& pred, CostClock* clock) = 0;
};

/// A plan node's reuse-cache outcome (DESIGN.md §15), rendered by EXPLAIN
/// ANALYZE as the tag after each name.
enum class CacheState {
  kNone,      ///< cache off, or a bare scan: no tag
  kHit,       ///< result served from the cache, subtree skipped: cache=hit
  kBuildHit,  ///< join probed a cached build table: cache=hit(build)
  kMiss,      ///< missed, ran, and offered its rows: cache=miss
  kBypass,    ///< missed and ran declined, offering nothing: cache=bypass
};

/// What one plan node actually did during an EXPLAIN ANALYZE run. Every
/// figure is *inclusive* of the node's children (execution is depth-first,
/// so a node's window contains its subtree); the renderer derives self
/// time by subtracting the children's inclusive costs.
struct PlanNodeRunStats {
  int64_t rows_out = 0;
  int64_t comparisons = 0;       ///< cost-clock comparison charges
  int64_t hashes = 0;            ///< cost-clock hash charges
  int64_t page_reads = 0;        ///< simulated-disk page reads
  int64_t page_writes = 0;       ///< simulated-disk page writes
  int64_t spill_partitions = 0;  ///< "exec.spill.partitions" delta
  int64_t spill_bytes = 0;       ///< "exec.spill.bytes" delta
  double cost_seconds = 0;       ///< simulated cost-clock delta
  int64_t wall_ns = 0;           ///< real elapsed time (inclusive)
  CacheState cache_state = CacheState::kNone;
};

/// Per-node statistics keyed by plan node, filled by ExecutePlan when the
/// caller passes a trace (the EXPLAIN ANALYZE path).
struct PlanRunTrace {
  std::map<const PlanNode*, PlanNodeRunStats> nodes;
};

/// Executes a physical plan produced by Optimizer::Optimize against the
/// catalog's memory-resident tables, charging all operator work (filter
/// comparisons, join hashing/moving/probing, spill I/O) to ctx->clock.
/// With `trace` non-null, each node's actual row counts, comparisons, page
/// I/O, spill volume and cost-clock delta are recorded (spill figures need
/// ctx->metrics attached).
///
/// With `aggregate` non-null the result is instead the plan's output
/// grouped by it — exactly HashAggregate on the relation the plan would
/// return, run as the executor's terminal pipeline breaker (AggregateView
/// reads the root in place). `agg_stats`, when given, receives its stats.
StatusOr<Relation> ExecutePlan(const PlanNode& plan, const Catalog& catalog,
                               ExecContext* ctx,
                               IndexProvider* indexes = nullptr,
                               PlanRunTrace* trace = nullptr,
                               const AggregateSpec* aggregate = nullptr,
                               AggStats* agg_stats = nullptr);

/// The plan text with each node annotated by its actual run statistics:
///   Join[hybrid-hash](...)  [~60 tuples, 0.123s]
///       (actual rows=60 comps=118 reads=0 spill=0B self=0.012s)
std::string RenderAnalyzedPlan(const PlanNode& plan,
                               const PlanRunTrace& trace);

/// Convenience: optimize + execute in one call. With `trace` non-null the
/// returned plan_text is the EXPLAIN ANALYZE rendering; `aggregate` and
/// `agg_stats` are ExecutePlan's.
struct QueryResult {
  Relation relation;
  std::string plan_text;
};
StatusOr<QueryResult> RunQuery(const Query& query, const Catalog& catalog,
                               const struct OptimizerOptions& options,
                               ExecContext* ctx,
                               IndexProvider* indexes = nullptr,
                               PlanRunTrace* trace = nullptr,
                               const AggregateSpec* aggregate = nullptr,
                               AggStats* agg_stats = nullptr);

}  // namespace mmdb

#endif  // MMDB_OPTIMIZER_EXECUTOR_H_
