#ifndef MMDB_STORAGE_ROW_VIEW_H_
#define MMDB_STORAGE_ROW_VIEW_H_

#include <vector>

#include "storage/relation.h"

namespace mmdb {

/// Records of a memory-resident relation read in place — the executor's
/// late-materialized intermediate result (DESIGN.md §14). A view names a
/// source relation it does not own, an optional selection (the ordinals of
/// the source records that survive, in output order) and an optional
/// column map with its schema. View row i is source record record(i) read
/// through source_column(); no byte is copied until CopyTo or Materialize.
///
/// The source must outlive the view and must not change while the view
/// is read.
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
  /// The selected source ordinals, or null when the view selects all.
  const int64_t* selection() const {
    return selected_ ? sel_.data() : nullptr;
  }
  /// The source record behind view row `i`; its view column c is source
  /// column source_column(c).
  const char* record(int64_t i) const {
    return source_->record(selected_ ? sel_[static_cast<size_t>(i)] : i);
  }
  int source_column(int c) const {
    return mapped_ ? cols_[static_cast<size_t>(c)] : c;
  }
  /// True when the view is its whole source, column for column.
  bool identity() const { return !selected_ && !mapped_; }
  const Relation* source() const { return source_; }
  /// Re-points the view at `source`, which must hold the same records (the
  /// relation the source was moved into).
  void set_source(const Relation* source) { source_ = source; }

  /// Narrows the view to source ordinals `ordinals`.
  void Select(std::vector<int64_t> ordinals);
  /// Keeps view columns `columns`, in that order (composes with the
  /// current column map).
  void Project(const std::vector<int>& columns);

  /// Writes view row `i` as a record of schema() at `out`.
  void CopyTo(int64_t i, char* out) const;
  /// Every view row, copied into a new relation of schema().
  Relation Materialize() const;
  /// The paper's |R| of the materialized rows (Relation::NumPages).
  int64_t NumPages(int64_t page_size) const;

 private:
  const Relation* source_ = nullptr;
  bool selected_ = false;
  std::vector<int64_t> sel_;
  bool mapped_ = false;
  std::vector<int> cols_;
  Schema schema_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_ROW_VIEW_H_
