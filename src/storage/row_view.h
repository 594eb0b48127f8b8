#ifndef MMDB_STORAGE_ROW_VIEW_H_
#define MMDB_STORAGE_ROW_VIEW_H_

#include <algorithm>
#include <functional>
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
  void CopyTo(int64_t i, char* out) const { CopyRecord(record(i), out); }
  /// Writes the source record at `rec` as a record of schema() at `out`.
  void CopyRecord(const char* rec, char* out) const;
  /// Calls sink(ordinals, n) with the source ordinals of the view's rows,
  /// in order, at most Relation::kBlockRecords at a time.
  template <typename Sink>
  void ForEachBlock(const Sink& sink) const;
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

template <typename Sink>
void RowView::ForEachBlock(const Sink& sink) const {
  int64_t all[Relation::kBlockRecords];
  const int64_t n = size();
  for (int64_t first = 0; first < n; first += Relation::kBlockRecords) {
    const int64_t k = std::min(Relation::kBlockRecords, n - first);
    if (selected_) {
      sink(sel_.data() + first, k);
      continue;
    }
    for (int64_t i = 0; i < k; ++i) all[i] = first + i;
    sink(static_cast<const int64_t*>(all), k);
  }
}

/// Called with the source ordinals of up to Relation::kBlockRecords rows,
/// in row order.
using BlockSink = std::function<void(const int64_t* ordinals, int64_t n)>;

/// Rows a consumer reads in place a block at a time (DESIGN.md §14): a
/// RowView, or the executor's filter over one, which runs a block at a
/// time as its consumer reads so that each survivor is read while its
/// block is still in cache. The join probe, the GROUP BY fold and the
/// root's materialize consume one.
class BlockSource {
 public:
  virtual ~BlockSource() = default;
  /// The rows' source relation and column map (schema(), source(),
  /// source_column()); its selection is the rows' only after Collect.
  virtual const RowView& columns() const = 0;
  /// An upper bound on the number of rows.
  virtual int64_t max_rows() const = 0;
  /// Calls sink(ordinals, n) with the source ordinals of the rows, in
  /// order, a block at a time; returns the number of rows. Rows still to be
  /// computed are computed here, once: a source is read by one Drive.
  virtual int64_t Drive(const BlockSink& sink) = 0;
  /// Every row, computed first if need be, as a view that may be read
  /// again: a pipeline breaker.
  virtual const RowView& Collect() = 0;
};

/// A RowView as a BlockSource.
class ViewBlocks final : public BlockSource {
 public:
  explicit ViewBlocks(const RowView& view) : view_(view) {}
  const RowView& columns() const override { return view_; }
  int64_t max_rows() const override { return view_.size(); }
  int64_t Drive(const BlockSink& sink) override {
    view_.ForEachBlock(sink);
    return view_.size();
  }
  const RowView& Collect() override { return view_; }

 private:
  const RowView& view_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_ROW_VIEW_H_
