#ifndef MMDB_OPTIMIZER_CATALOG_H_
#define MMDB_OPTIMIZER_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"

namespace mmdb {

/// Per-column statistics gathered at registration time (the inputs to
/// Selinger-style selectivity estimation [SELI79]).
struct ColumnStats {
  int64_t num_distinct = 0;
  Value min_value;
  Value max_value;
  bool has_min_max = false;
};

/// Per-table statistics: the ||R|| and |R| of the cost formulas.
struct TableStats {
  int64_t num_tuples = 0;
  int64_t num_pages = 0;
  std::vector<ColumnStats> columns;
};

/// Kinds of secondary indexes the planner may route point/prefix
/// restrictions through (§2's access methods feeding §4's planning).
enum class IndexKind { kAvl, kBTree, kHash };

struct IndexInfo {
  std::string column;
  IndexKind kind;
};

/// A registered table: the memory-resident relation plus its statistics.
struct TableEntry {
  std::string name;
  const Relation* relation = nullptr;
  TableStats stats;
  std::vector<IndexInfo> indexes;
};

/// Name -> table registry used by the optimizer and plan executor. Tables
/// are borrowed; the caller keeps the Relations alive.
class Catalog {
 public:
  explicit Catalog(int64_t page_size = 4096) : page_size_(page_size) {}

  /// Registers `relation` under `name`, computing full column statistics
  /// (one pass; exact distinct counts — the relations are memory resident).
  Status RegisterTable(const std::string& name, const Relation* relation);

  StatusOr<const TableEntry*> Lookup(const std::string& name) const;

  /// Declares that `table.column` has an index of `kind`. The planner may
  /// then emit IndexScan nodes served by an IndexProvider at execution.
  Status RegisterIndex(const std::string& table, const std::string& column,
                       IndexKind kind);

  /// The index on `table.column`, or nullptr.
  const IndexInfo* FindIndex(const std::string& table,
                             const std::string& column) const;

  /// Index of `column` in `table`'s schema.
  StatusOr<int> ResolveColumn(const std::string& table,
                              const std::string& column) const;

  int64_t page_size() const { return page_size_; }

 private:
  int64_t page_size_;
  std::map<std::string, TableEntry> tables_;
};

}  // namespace mmdb

#endif  // MMDB_OPTIMIZER_CATALOG_H_
