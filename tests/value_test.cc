// The inline fast paths of CompareValues and HashValue (DESIGN.md §14)
// return exactly what the out-of-line paths return, and both equal the
// formulas every stored hash and comparison was built with: a changed
// hash would move groups, buckets and spill partitions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "storage/value.h"

namespace mmdb {
namespace {

int ReferenceCompare(const Value& a, const Value& b) {
  if (TypeOf(a) == ValueType::kString) {
    const int c = std::get<std::string>(a).compare(std::get<std::string>(b));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (TypeOf(a) == ValueType::kInt64) {
    const int64_t x = std::get<int64_t>(a), y = std::get<int64_t>(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const double x = std::get<double>(a), y = std::get<double>(b);
  return x < y ? -1 : (x > y ? 1 : 0);
}

uint64_t ReferenceHash(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(std::get<int64_t>(v)));
    case ValueType::kDouble: {
      double d = std::get<double>(v);
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case ValueType::kString:
      return HashString(std::get<std::string>(v));
  }
  return 0;
}

/// A mix of all three types, edge values included.
std::vector<Value> MixedValues() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<Value> values = {
      Value{kMin},        Value{kMin + 1},
      Value{int64_t{-1}}, Value{int64_t{0}},
      Value{int64_t{1}},  Value{kMax - 1},
      Value{kMax},        Value{-0.0},
      Value{0.0},         Value{-1.5},
      Value{1.5},         Value{std::numeric_limits<double>::infinity()},
      Value{std::numeric_limits<double>::lowest()},
      Value{std::string()},
      Value{std::string("a")},
      Value{std::string("ab")},
      Value{std::string("b")}};
  std::mt19937_64 rng(42);
  for (int i = 0; i < 300; ++i) {
    switch (rng() % 3) {
      case 0:
        values.emplace_back(static_cast<int64_t>(rng()));
        break;
      case 1:
        values.emplace_back(static_cast<double>(static_cast<int64_t>(rng())) /
                            1024.0);
        break;
      default:
        values.emplace_back(std::string(rng() % 6, char('a' + rng() % 3)));
        break;
    }
  }
  return values;
}

TEST(ValueFastPathTest, CompareEqualsSlowPathAndReference) {
  const std::vector<Value> values = MixedValues();
  int64_t int_pairs = 0;
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (TypeOf(a) != TypeOf(b)) continue;
      const int fast = CompareValues(a, b);
      EXPECT_EQ(fast, value_internal::CompareValuesSlow(a, b));
      EXPECT_EQ(fast, ReferenceCompare(a, b));
      EXPECT_EQ(ValuesEqual(a, b), fast == 0);
      int_pairs += TypeOf(a) == ValueType::kInt64 ? 1 : 0;
    }
  }
  EXPECT_GT(int_pairs, 1000);
}

TEST(ValueFastPathTest, HashEqualsSlowPathAndReference) {
  for (const Value& v : MixedValues()) {
    EXPECT_EQ(HashValue(v), value_internal::HashValueSlow(v));
    EXPECT_EQ(HashValue(v), ReferenceHash(v));
  }
}

TEST(ValueFastPathTest, SignedZerosCompareAndHashEqual) {
  const Value neg{-0.0};
  const Value pos{0.0};
  EXPECT_TRUE(std::signbit(std::get<double>(neg)));
  EXPECT_EQ(CompareValues(neg, pos), 0);
  EXPECT_EQ(HashValue(neg), HashValue(pos));
  EXPECT_EQ(value_internal::HashValueSlow(neg),
            value_internal::HashValueSlow(pos));
}

}  // namespace
}  // namespace mmdb
