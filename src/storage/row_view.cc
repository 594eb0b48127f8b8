#include "storage/row_view.h"

#include "common/check.h"
#include "storage/page.h"

namespace mmdb {

void RowView::Select(std::vector<const Row*> rows) {
  sel_ = std::move(rows);
  selected_ = true;
}

void RowView::Project(const std::vector<int>& columns) {
  Schema projected = schema().Select(columns);
  std::vector<int> cols;
  cols.reserve(columns.size());
  for (int c : columns) cols.push_back(static_cast<int>(source_column(c)));
  cols_ = std::move(cols);
  schema_ = std::move(projected);
  mapped_ = true;
}

Row RowView::CopyRow(int64_t i) const {
  const Row& src = row(i);
  if (!mapped_) return src;
  Row out;
  out.reserve(cols_.size());
  for (int c : cols_) out.push_back(src[static_cast<size_t>(c)]);
  return out;
}

std::vector<Row> RowView::CopyRows() const {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(size()));
  for (int64_t i = 0; i < size(); ++i) rows.push_back(CopyRow(i));
  return rows;
}

Relation RowView::Materialize() const& {
  return Relation(schema(), CopyRows());
}

Relation RowView::Materialize() && {
  std::vector<Row> rows = CopyRows();
  if (!mapped_) return Relation(source_->schema(), std::move(rows));
  return Relation(std::move(schema_), std::move(rows));
}

int64_t RowView::NumPages(int64_t page_size) const {
  const int32_t per_page = Page::Capacity(page_size, schema().record_size());
  MMDB_CHECK(per_page > 0);
  return (size() + per_page - 1) / per_page;
}

}  // namespace mmdb
