#ifndef MMDB_DB_QUERY_PARSER_H_
#define MMDB_DB_QUERY_PARSER_H_

#include <optional>
#include <string>

#include "exec/aggregate.h"
#include "optimizer/catalog.h"
#include "optimizer/plan.h"

namespace mmdb {

/// A parsed SQL statement, normalized into the engine's native structures.
/// The dialect covers exactly the fragment the paper evaluates:
///
///   CREATE TABLE t (col INT64 | DOUBLE | CHAR(n), ...)
///   INSERT INTO t VALUES (lit, ...)[, (lit, ...) ...]
///   UPDATE t SET col = lit [, col = lit ...] [WHERE col op literal ...]
///   SELECT [DISTINCT] cols | * | aggregates
///     FROM t1 [, t2 ...]
///     [WHERE a.x = b.y AND c op literal AND name LIKE 'j%' ...]
///     [GROUP BY cols]
///   EXPLAIN [ANALYZE] SELECT ...
///   BEGIN | COMMIT | ROLLBACK | ABORT   (transaction control: a Session's)
///
/// Restrictions (by design — see README "Status"): conjunctive predicates
/// only, equi-joins only, LIKE with a trailing '%' only (the paper's "J*"
/// prefix query), aggregates are COUNT/SUM/AVG/MIN/MAX.
struct ParsedStatement {
  enum class Kind {
    kSelect,
    kCreateTable,
    kInsert,
    kUpdate,
    kExplain,
    kExplainAnalyze,  ///< run the query, annotate the plan with run stats
    kBegin,
    kCommit,
    kRollback,  ///< ROLLBACK or ABORT
  };
  Kind kind = Kind::kSelect;

  /// CREATE TABLE, INSERT and UPDATE: the kinds that change the database,
  /// so they run under the exclusive latch and take X table locks.
  bool is_write() const {
    return kind == Kind::kCreateTable || kind == Kind::kInsert ||
           kind == Kind::kUpdate;
  }

  // kSelect / kExplain / kExplainAnalyze; kUpdate reuses query.tables (the
  // one target table) and query.filters (the WHERE restrictions).
  Query query;
  bool distinct = false;
  /// Present when the select list contains aggregates, and for SELECT
  /// DISTINCT (grouping on every selected column, no aggregates);
  /// group_by/column indexes refer to the columns of `query.select_columns`.
  std::optional<AggregateSpec> aggregate;

  // kCreateTable / kUpdate
  std::string table_name;
  Schema schema;

  // kInsert: the VALUES rows as records of the target table, literals
  // coerced to (and checked against) the columns at parse time.
  Relation rows;

  // kUpdate: column = literal assignments, literals coerced to the
  // column's declared type at parse time.
  struct SetClause {
    std::string column;
    Value value;
  };
  std::vector<SetClause> set_clauses;
  /// kUpdate: its one WHERE restriction is on the table's first column,
  /// and no SET clause assigns that column. The parse's half of the
  /// server's row-lock rule (DESIGN.md §11): every row-locking writer on a
  /// table keys its row locks off the same column, and no row changes its
  /// row-lock id mid-transaction.
  bool keyed_by_first_column = false;
};

/// Parses one statement. Column references are resolved against `catalog`
/// (unqualified names must be unambiguous across the FROM tables, and a
/// qualified one must name a FROM table and one of its columns); INSERT
/// reads the target table's schema from it. CREATE TABLE does not consult
/// it.
StatusOr<ParsedStatement> ParseStatement(const std::string& sql,
                                         const Catalog& catalog);

}  // namespace mmdb

#endif  // MMDB_DB_QUERY_PARSER_H_
