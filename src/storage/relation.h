#ifndef MMDB_STORAGE_RELATION_H_
#define MMDB_STORAGE_RELATION_H_

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace mmdb {

/// A materialized, memory-resident relation: a schema plus tuples stored as
/// the paper's fixed-width records of schema().record_size() bytes, in
/// SerializeRow's byte format. This is the currency of the executor —
/// operators consume and produce Relations and read fields in place
/// (storage/row.h's Field); HeapFile is its disk-resident form.
///
/// Records live in blocks of kBlockRecords records each. A full block is
/// never moved or resized, so a record's address is stable for the
/// relation's lifetime (moving the Relation moves no block; Reserve names
/// the one exception), and record(i) is a shift, a mask and a multiply
/// away.
class Relation {
 public:
  static constexpr int kBlockShift = 10;
  static constexpr int64_t kBlockRecords = int64_t{1} << kBlockShift;

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(const Relation& other);
  Relation& operator=(const Relation& other) {
    return *this = Relation(other);
  }
  /// A moved-from relation holds no record.
  Relation(Relation&& other) noexcept { *this = std::move(other); }
  Relation& operator=(Relation&& other) noexcept {
    schema_ = std::move(other.schema_);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    blocks_ = std::move(other.blocks_);
    return *this;
  }

  const Schema& schema() const { return schema_; }
  int64_t num_tuples() const { return size_; }

  /// Record `i`'s bytes.
  const char* record(int64_t i) const {
    return blocks_[static_cast<size_t>(i >> kBlockShift)].get() +
           (i & (kBlockRecords - 1)) * schema_.record_size();
  }
  char* mutable_record(int64_t i) {
    return const_cast<char*>(static_cast<const Relation*>(this)->record(i));
  }

  /// Appends one record and returns its bytes for the caller to write.
  char* AppendRecord() {
    if (size_ == capacity_) Grow();
    return mutable_record(size_++);
  }
  /// Sizes the first block of a relation that has none yet for `n`
  /// records when `n` is below kBlockRecords, so a small relation holds
  /// only the records it needs. Appending past such a short block regrows
  /// it to a full one, which moves its records: the one case in which a
  /// record moves.
  void Reserve(int64_t n);
  /// Heap bytes of the Relation and its blocks.
  int64_t allocated_bytes() const {
    return static_cast<int64_t>(sizeof(Relation)) +
           capacity_ * schema_.record_size();
  }
  /// allocated_bytes() of `n` records of `schema` appended after Reserve(n).
  static int64_t ReservedBytes(const Schema& schema, int64_t n) {
    const int64_t blocks = (n + kBlockRecords - 1) >> kBlockShift;
    return static_cast<int64_t>(sizeof(Relation)) +
           (n < kBlockRecords ? n : blocks << kBlockShift) *
               schema.record_size();
  }
  /// Appends a copy of the record at `rec`, which is not this relation's.
  void Append(const char* rec) {
    std::memcpy(AppendRecord(), rec,
                static_cast<size_t>(schema_.record_size()));
  }
  /// Appends `row`, serialized; CHECK-fails on a row that does not fit the
  /// schema (arity, types, CHAR widths).
  void Add(const Row& row);

  /// Record `i` as Values.
  Row RowAt(int64_t i) const { return DeserializeRow(schema_, record(i)); }
  /// Every record as Values, copied: for result boundaries, tests and
  /// oracles, never for a per-statement path.
  std::vector<Row> rows() const;

  /// The paper's |R|: pages this relation occupies at the given page size
  /// (fixed-width records, Page-format capacity).
  int64_t NumPages(int64_t page_size) const;

  /// Tuples that fit per page at this schema's record size.
  int32_t TuplesPerPage(int64_t page_size) const {
    return Page::Capacity(page_size, schema_.record_size());
  }

  /// Stable sort by one column ascending — for test oracles.
  void SortBy(int column);

  /// Writes all tuples into `heap`.
  Status ToHeapFile(HeapFile* heap) const;

  /// Reads an entire heap file back into memory.
  static StatusOr<Relation> FromHeapFile(const Schema& schema, HeapFile* heap);

 private:
  /// Makes room for one more record: regrows a short first block, or
  /// adds a full block.
  void Grow();

  Schema schema_;
  int64_t size_ = 0;
  int64_t capacity_ = 0;  ///< records the blocks hold
  std::vector<std::unique_ptr<char[]>> blocks_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_RELATION_H_
