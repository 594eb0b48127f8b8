#ifndef MMDB_STORAGE_PAGE_H_
#define MMDB_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace mmdb {

/// A fixed-size-record data page:
///
///   +---------------------------+
///   | uint32 record_count       |  8-byte header (4 reserved)
///   +---------------------------+
///   | record 0 | record 1 | ... |  record_size bytes each
///   +---------------------------+
///
/// mmdb records are fixed width (Schema::record_size), so a slot directory
/// is unnecessary; records pack densely and capacity is
/// (page_size - kHeaderSize) / record_size — the paper's "tuples per page".
class Page {
 public:
  static constexpr int64_t kHeaderSize = 8;

  /// Wraps an external page-sized buffer; does not own it.
  Page(char* data, int64_t page_size, int32_t record_size)
      : data_(data), page_size_(page_size), record_size_(record_size) {
    MMDB_DCHECK(record_size > 0);
    MMDB_DCHECK(page_size >= kHeaderSize + record_size);
  }

  /// Max records a page of this geometry holds.
  static int32_t Capacity(int64_t page_size, int32_t record_size) {
    return static_cast<int32_t>((page_size - kHeaderSize) / record_size);
  }

  int32_t capacity() const { return Capacity(page_size_, record_size_); }

  int32_t record_count() const {
    uint32_t n;
    std::memcpy(&n, data_, sizeof(n));
    return static_cast<int32_t>(n);
  }

  bool Full() const { return record_count() >= capacity(); }

  /// Zeroes the header (count = 0).
  void Init() { std::memset(data_, 0, kHeaderSize); }

  /// Appends one record; fails with kResourceExhausted when full.
  Status Append(const char* record) {
    int32_t n = record_count();
    if (n >= capacity()) return Status::ResourceExhausted("page full");
    std::memcpy(RecordPtr(n), record, static_cast<size_t>(record_size_));
    SetCount(n + 1);
    return Status::OK();
  }

  /// Pointer to record `i` (0-based). Precondition: i < record_count().
  const char* Record(int32_t i) const {
    MMDB_DCHECK(i >= 0 && i < record_count());
    return RecordPtr(i);
  }

  char* raw() { return data_; }
  const char* raw() const { return data_; }

 private:
  char* RecordPtr(int32_t i) const {
    return data_ + kHeaderSize + static_cast<int64_t>(i) * record_size_;
  }
  void SetCount(int32_t n) {
    uint32_t u = static_cast<uint32_t>(n);
    std::memcpy(data_, &u, sizeof(u));
  }

  char* data_;
  int64_t page_size_;
  int32_t record_size_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_PAGE_H_
