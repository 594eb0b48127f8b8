#ifndef MMDB_OPTIMIZER_PLAN_H_
#define MMDB_OPTIMIZER_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/join.h"
#include "optimizer/predicate.h"

namespace mmdb {

/// A (table, column) reference; the currency of query descriptions and
/// plan-node output descriptions.
struct ColumnRef {
  std::string table;
  std::string column;

  bool operator==(const ColumnRef& o) const {
    return table == o.table && column == o.column;
  }
  std::string ToString() const { return table + "." + column; }
};

/// One equi-join edge of the query graph.
struct JoinClause {
  ColumnRef left;
  ColumnRef right;
};

/// The declarative query the optimizer consumes:
///   SELECT select_columns (all columns when empty)
///   FROM tables
///   WHERE filters AND joins
/// Aggregation over the result is applied separately (HashAggregate) — §4's
/// point is precisely that hash aggregation composes freely on top because
/// it is insensitive to input order.
struct Query {
  std::vector<std::string> tables;
  std::vector<JoinClause> joins;
  std::vector<Predicate> filters;
  std::vector<ColumnRef> select_columns;
};

/// Physical plan tree produced by the optimizer.
struct PlanNode {
  enum class Kind { kScan, kIndexScan, kFilter, kJoin, kProject };

  Kind kind = Kind::kScan;

  // kScan / kIndexScan
  std::string table;
  // kIndexScan: the restriction served by the index (predicates[0]) and
  // which access method serves it.
  IndexKind index_kind = IndexKind::kHash;

  // kFilter (applied to child_left), ordered most selective first (§4).
  // kIndexScan: exactly one served predicate.
  std::vector<Predicate> predicates;

  // kJoin
  JoinAlgorithm algorithm = JoinAlgorithm::kHybridHash;
  JoinClause join;
  /// True when the optimizer swapped build/probe so the smaller input is
  /// the build side (the |R| <= |S| convention of §3).
  bool build_is_right = false;

  // kProject
  std::vector<ColumnRef> projection;

  std::unique_ptr<PlanNode> child_left;
  std::unique_ptr<PlanNode> child_right;

  /// Output description: position -> originating column.
  std::vector<ColumnRef> output_columns;

  // Optimizer estimates.
  double est_tuples = 0;
  double est_pages = 0;
  double est_cost_seconds = 0;  ///< cumulative W*CPU + IO

  /// Optimizer-internal DP bookkeeping (kJoin only): the winning split of
  /// this node's relation mask into child masks, recorded during dynamic
  /// programming and consumed when the final tree is rebuilt. Zero outside
  /// the optimizer; never meaningful in a finished plan.
  uint32_t dp_split_rest = 0;
  uint32_t dp_split_bit = 0;

  /// Multi-line indented rendering for logs and plan tests.
  std::string ToString(int indent = 0) const;

  /// Rendering with a per-node annotation appended after each line — the
  /// EXPLAIN ANALYZE renderer supplies actual run statistics this way. The
  /// annotator receives the node and its indent level (for continuation
  /// lines); its return value is inserted before the line's newline.
  using Annotator = std::function<std::string(const PlanNode&, int)>;
  std::string ToString(int indent, const Annotator& annotate) const;
};

}  // namespace mmdb

#endif  // MMDB_OPTIMIZER_PLAN_H_
