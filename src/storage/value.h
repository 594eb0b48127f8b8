#ifndef MMDB_STORAGE_VALUE_H_
#define MMDB_STORAGE_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <variant>

#include "common/hash.h"

namespace mmdb {

/// Column types. mmdb stores fixed-width records (the paper's relations are
/// described purely by tuple width L and key width K), so strings are
/// fixed-width CHAR(n) fields.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

std::string_view ValueTypeName(ValueType t);

/// A single column value. Small enough to pass by value in the executor.
using Value = std::variant<int64_t, double, std::string>;

/// Runtime type of `v`.
inline ValueType TypeOf(const Value& v) {
  return static_cast<ValueType>(v.index());
}

/// Three-way comparison of two values of one type: -1, 0 or 1. A NaN
/// compares equal to everything, as the DOUBLE path always has.
template <typename T>
inline int CompareNative(T x, T y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// HashValue of a DOUBLE: its bits, with -0.0 normalized to 0.0.
inline uint64_t HashDouble(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

namespace value_internal {
/// The out-of-line DOUBLE and string paths of CompareValues and HashValue.
int CompareValuesSlow(const Value& a, const Value& b);
uint64_t HashValueSlow(const Value& v);
}  // namespace value_internal

/// Three-way comparison. Values must have the same type (checked).
/// Returns <0, 0, >0. Two INT64 values compare inline.
inline int CompareValues(const Value& a, const Value& b) {
  const int64_t* x = std::get_if<int64_t>(&a);
  const int64_t* y = std::get_if<int64_t>(&b);
  if (x != nullptr && y != nullptr) return CompareNative(*x, *y);
  return value_internal::CompareValuesSlow(a, b);
}

/// Equality consistent with CompareValues.
inline bool ValuesEqual(const Value& a, const Value& b) {
  return CompareValues(a, b) == 0;
}

/// Hash consistent with ValuesEqual (same type assumed). An INT64 value
/// hashes inline.
inline uint64_t HashValue(const Value& v) {
  if (const int64_t* x = std::get_if<int64_t>(&v)) {
    return Mix64(static_cast<uint64_t>(*x));
  }
  return value_internal::HashValueSlow(v);
}

/// Human-readable rendering (integers plain, doubles with %g, strings
/// verbatim).
std::string ValueToString(const Value& v);

}  // namespace mmdb

#endif  // MMDB_STORAGE_VALUE_H_
