#include "storage/value.h"

#include <cstdio>

#include "common/check.h"

namespace mmdb {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

namespace value_internal {

int CompareValuesSlow(const Value& a, const Value& b) {
  MMDB_DCHECK(a.index() == b.index());
  switch (TypeOf(a)) {
    case ValueType::kInt64:
      return CompareNative(std::get<int64_t>(a), std::get<int64_t>(b));
    case ValueType::kDouble:
      return CompareNative(std::get<double>(a), std::get<double>(b));
    case ValueType::kString: {
      const std::string& x = std::get<std::string>(a);
      const std::string& y = std::get<std::string>(b);
      int c = x.compare(y);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

uint64_t HashValueSlow(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(std::get<int64_t>(v)));
    case ValueType::kDouble: {
      double d = std::get<double>(v);
      if (d == 0.0) d = 0.0;  // normalize -0.0
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case ValueType::kString:
      return HashString(std::get<std::string>(v));
  }
  return 0;
}

}  // namespace value_internal

std::string ValueToString(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(v));
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v));
      return buf;
    }
    case ValueType::kString:
      return std::get<std::string>(v);
  }
  return "";
}

}  // namespace mmdb
