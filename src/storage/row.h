#ifndef MMDB_STORAGE_ROW_H_
#define MMDB_STORAGE_ROW_H_

#include <cstring>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace mmdb {

/// A tuple as Values: what callers that need Values (SQL literals, result
/// boundaries, test oracles) build from or read out of a record.
using Row = std::vector<Value>;

/// Serializes `row` into exactly `schema.record_size()` bytes at `out`.
/// INT64/DOUBLE are stored little-endian; CHAR(n) is zero-padded. Fails if
/// arity/types mismatch or a string exceeds its column width.
Status SerializeRow(const Schema& schema, const Row& row, char* out);

/// Parses a record previously produced by SerializeRow.
Row DeserializeRow(const Schema& schema, const char* data);

/// Writes `v` as column `col`'s bytes at `out` (SerializeRow's format for
/// one field). Fails on a type mismatch or a string wider than the column.
Status WriteField(const Column& col, const Value& v, char* out);

/// One column of a record format: where its bytes sit and how to read
/// them. The field functions below read a record in place and agree bit
/// for bit with the Value functions on the materialized field: partition
/// and bucket order depend on it.
struct Field {
  ValueType type = ValueType::kInt64;
  int32_t width = 8;
  int32_t offset = 0;

  static Field Of(const Schema& schema, int column) {
    const Column& c = schema.column(column);
    return Field{c.type, c.width, schema.offset(column)};
  }

  int64_t Int(const char* rec) const {
    int64_t x;
    std::memcpy(&x, rec + offset, sizeof(x));
    return x;
  }
  double Double(const char* rec) const {
    double x;
    std::memcpy(&x, rec + offset, sizeof(x));
    return x;
  }
  /// A CHAR field's string: its bytes up to the first zero.
  std::string_view Chars(const char* rec) const {
    return {rec + offset, strnlen(rec + offset, static_cast<size_t>(width))};
  }
  /// The field as a Value (DeserializeRow's reading of it).
  Value Read(const char* rec) const;
  /// HashValue(Read(rec)).
  uint64_t Hash(const char* rec) const {
    if (type == ValueType::kString) return HashString(Chars(rec));
    if (type == ValueType::kDouble) return HashDouble(Double(rec));
    return Mix64(static_cast<uint64_t>(Int(rec)));
  }
};

/// CompareValues(fa.Read(a), fb.Read(b)) for two fields of one type.
inline int CompareFields(const Field& fa, const char* a, const Field& fb,
                         const char* b) {
  if (fa.type == ValueType::kInt64) return CompareNative(fa.Int(a), fb.Int(b));
  if (fa.type == ValueType::kDouble) {
    return CompareNative(fa.Double(a), fb.Double(b));
  }
  const int c = fa.Chars(a).compare(fb.Chars(b));
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Renders "val1|val2|..." for debugging and golden tests.
std::string RowToString(const Row& row);

}  // namespace mmdb

#endif  // MMDB_STORAGE_ROW_H_
