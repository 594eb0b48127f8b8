#include "storage/relation.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace mmdb {

Relation::Relation(const Relation& other) : schema_(other.schema_) {
  Reserve(other.size_);
  for (int64_t i = 0; i < other.size_; ++i) Append(other.record(i));
}

void Relation::Reserve(int64_t n) {
  if (!blocks_.empty() || n <= 0 || n >= kBlockRecords) return;
  blocks_.emplace_back(
      new char[static_cast<size_t>(n * schema_.record_size())]);
  capacity_ = n;
}

void Relation::Grow() {
  const size_t block_bytes =
      static_cast<size_t>(kBlockRecords * schema_.record_size());
  if (capacity_ > 0 && capacity_ < kBlockRecords) {
    std::unique_ptr<char[]> full(new char[block_bytes]);
    std::memcpy(full.get(), blocks_[0].get(),
                static_cast<size_t>(size_ * schema_.record_size()));
    blocks_[0] = std::move(full);
    capacity_ = kBlockRecords;
    return;
  }
  blocks_.emplace_back(new char[block_bytes]);
  capacity_ += kBlockRecords;
}

void Relation::Add(const Row& row) {
  const Status s = SerializeRow(schema_, row, AppendRecord());
  MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
}

std::vector<Row> Relation::rows() const {
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(size_));
  for (int64_t i = 0; i < size_; ++i) out.push_back(RowAt(i));
  return out;
}

int64_t Relation::NumPages(int64_t page_size) const {
  const int32_t per_page = TuplesPerPage(page_size);
  MMDB_CHECK(per_page > 0);
  return (num_tuples() + per_page - 1) / per_page;
}

void Relation::SortBy(int column) {
  const Field f = Field::Of(schema_, column);
  std::vector<int64_t> order(static_cast<size_t>(size_));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return CompareFields(f, record(a), f, record(b)) < 0;
  });
  Relation sorted(schema_);
  sorted.Reserve(size_);
  for (int64_t i : order) sorted.Append(record(i));
  *this = std::move(sorted);
}

Status Relation::ToHeapFile(HeapFile* heap) const {
  for (int64_t i = 0; i < size_; ++i) {
    MMDB_RETURN_IF_ERROR(heap->Append(record(i)).status());
  }
  return Status::OK();
}

StatusOr<Relation> Relation::FromHeapFile(const Schema& schema,
                                          HeapFile* heap) {
  Relation out(schema);
  out.Reserve(heap->num_records());
  MMDB_RETURN_IF_ERROR(heap->Scan(
      [&](RecordId, const char* rec) { out.Append(rec); }));
  return out;
}

}  // namespace mmdb
