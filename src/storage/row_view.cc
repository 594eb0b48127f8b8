#include "storage/row_view.h"

#include "common/check.h"
#include "storage/page.h"

namespace mmdb {

void RowView::Select(std::vector<int64_t> ordinals) {
  sel_ = std::move(ordinals);
  selected_ = true;
}

void RowView::Project(const std::vector<int>& columns) {
  Schema projected = schema().Select(columns);
  std::vector<int> cols;
  cols.reserve(columns.size());
  for (int c : columns) cols.push_back(source_column(c));
  cols_ = std::move(cols);
  schema_ = std::move(projected);
  mapped_ = true;
}

void RowView::CopyRecord(const char* rec, char* out) const {
  const Schema& src = source_->schema();
  if (!mapped_) {
    std::memcpy(out, rec, static_cast<size_t>(src.record_size()));
    return;
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    std::memcpy(out + schema_.offset(c), rec + src.offset(cols_[size_t(c)]),
                static_cast<size_t>(schema_.column(c).width));
  }
}

Relation RowView::Materialize() const {
  Relation out(schema());
  out.Reserve(size());
  for (int64_t i = 0; i < size(); ++i) CopyTo(i, out.AppendRecord());
  return out;
}

int64_t RowView::NumPages(int64_t page_size) const {
  const int32_t per_page = Page::Capacity(page_size, schema().record_size());
  MMDB_CHECK(per_page > 0);
  return (size() + per_page - 1) / per_page;
}

}  // namespace mmdb
