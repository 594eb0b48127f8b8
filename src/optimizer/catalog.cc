#include "optimizer/catalog.h"

#include <unordered_set>

#include "common/hash.h"

namespace mmdb {

Status Catalog::RegisterTable(const std::string& name,
                              const Relation* relation) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name);
  }
  TableEntry entry;
  entry.name = name;
  entry.relation = relation;
  entry.stats.num_tuples = relation->num_tuples();
  entry.stats.num_pages = relation->NumPages(page_size_);

  const Schema& schema = relation->schema();
  entry.stats.columns.resize(static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    ColumnStats& cs = entry.stats.columns[static_cast<size_t>(c)];
    const Field f = Field::Of(schema, c);
    std::unordered_set<uint64_t> distinct;
    const char* min = nullptr;
    const char* max = nullptr;
    for (int64_t i = 0; i < relation->num_tuples(); ++i) {
      const char* rec = relation->record(i);
      distinct.insert(f.Hash(rec));
      if (min == nullptr) {
        min = max = rec;
      } else {
        if (CompareFields(f, rec, f, min) < 0) min = rec;
        if (CompareFields(f, rec, f, max) > 0) max = rec;
      }
    }
    if (min != nullptr) {
      cs.min_value = f.Read(min);
      cs.max_value = f.Read(max);
      cs.has_min_max = true;
    }
    cs.num_distinct = static_cast<int64_t>(distinct.size());
  }
  tables_[name] = std::move(entry);
  return Status::OK();
}

StatusOr<const TableEntry*> Catalog::Lookup(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return &it->second;
}

Status Catalog::RegisterIndex(const std::string& table,
                              const std::string& column, IndexKind kind) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  MMDB_RETURN_IF_ERROR(
      it->second.relation->schema().ColumnIndex(column).status());
  for (const IndexInfo& info : it->second.indexes) {
    if (info.column == column) {
      return Status::AlreadyExists("index on " + table + "." + column);
    }
  }
  it->second.indexes.push_back(IndexInfo{column, kind});
  return Status::OK();
}

const IndexInfo* Catalog::FindIndex(const std::string& table,
                                    const std::string& column) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  for (const IndexInfo& info : it->second.indexes) {
    if (info.column == column) return &info;
  }
  return nullptr;
}

StatusOr<int> Catalog::ResolveColumn(const std::string& table,
                                     const std::string& column) const {
  MMDB_ASSIGN_OR_RETURN(const TableEntry* entry, Lookup(table));
  return entry->relation->schema().ColumnIndex(column);
}

}  // namespace mmdb
