#ifndef MMDB_STORAGE_ROW_VIEW_H_
#define MMDB_STORAGE_ROW_VIEW_H_

#include <vector>

#include "storage/relation.h"

namespace mmdb {

/// Rows of a memory-resident relation read in place — the executor's
/// late-materialized intermediate result (DESIGN.md §14). A view names a
/// source relation it does not own, an optional selection (pointers to
/// the source rows that survive, in output order) and an optional column
/// map with its schema. View row i is source row row(i) read through
/// source_column(); no Value is copied until CopyRow or Materialize.
///
/// The source must outlive the view and must not change while the view
/// is read: its rows are addressed by pointer.
class RowView {
 public:
  RowView() = default;
  /// Every row and column of `source`.
  explicit RowView(const Relation* source) : source_(source) {}

  const Schema& schema() const {
    return mapped_ ? schema_ : source_->schema();
  }
  int64_t size() const {
    return selected_ ? static_cast<int64_t>(sel_.size())
                     : source_->num_tuples();
  }
  /// The source row behind view row `i`; read its view column c at
  /// source_column(c).
  const Row& row(int64_t i) const {
    return selected_ ? *sel_[static_cast<size_t>(i)]
                     : source_->rows()[static_cast<size_t>(i)];
  }
  size_t source_column(int c) const {
    return static_cast<size_t>(mapped_ ? cols_[static_cast<size_t>(c)] : c);
  }
  /// True when the view is its whole source, column for column.
  bool identity() const { return !selected_ && !mapped_; }
  const Relation* source() const { return source_; }
  /// Re-points the view at `source`, which must hold the same rows at the
  /// same addresses (the relation the source was moved into).
  void set_source(const Relation* source) { source_ = source; }

  /// Narrows the view to `rows`, pointers obtained from row().
  void Select(std::vector<const Row*> rows);
  /// Keeps view columns `columns`, in that order (composes with the
  /// current column map).
  void Project(const std::vector<int>& columns);

  /// View row `i` as an owned row: its columns, copied.
  Row CopyRow(int64_t i) const;
  /// Every view row, copied into a new relation of schema(). The rvalue
  /// form moves a projected view's schema out instead of copying it.
  Relation Materialize() const&;
  Relation Materialize() &&;
  /// The paper's |R| of the materialized rows (Relation::NumPages).
  int64_t NumPages(int64_t page_size) const;

 private:
  std::vector<Row> CopyRows() const;

  const Relation* source_ = nullptr;
  bool selected_ = false;
  std::vector<const Row*> sel_;
  bool mapped_ = false;
  std::vector<int> cols_;
  Schema schema_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_ROW_VIEW_H_
