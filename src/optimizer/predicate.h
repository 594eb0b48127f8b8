#ifndef MMDB_OPTIMIZER_PREDICATE_H_
#define MMDB_OPTIMIZER_PREDICATE_H_

#include <string>

#include "common/status.h"
#include "optimizer/catalog.h"
#include "storage/row.h"

namespace mmdb {

/// Comparison operators for single-table restrictions. kPrefix is the
/// paper's 'emp.name = "J*"' query: a string prefix match, satisfiable by a
/// contiguous range scan on an ordered index.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe, kPrefix };

std::string_view CmpOpName(CmpOp op);

/// One restriction: table.column <op> literal.
struct Predicate {
  std::string table;
  std::string column;
  CmpOp op = CmpOp::kEq;
  Value literal;

  std::string ToString() const;
};

/// Selinger-style selectivity estimate from catalog statistics:
/// equality -> 1/distinct; ranges -> covered fraction of [min, max]
/// (numeric columns only; 1/3 fallback); prefix -> 1/distinct-stem
/// heuristic (0.05 fallback).
double EstimateSelectivity(const Predicate& pred, const TableEntry& entry);

/// A Predicate resolved once, before a row loop: the source column it
/// reads, its operator and its literal as a native value. Matches(row) is
/// `row[column] <op> literal`. A value of another type than the literal
/// never matches, kPrefix matches strings only, and the other operators
/// test CompareValues' three-way result.
class BoundPredicate {
 public:
  BoundPredicate(const Predicate& pred, size_t column);

  size_t column() const { return column_; }

  bool Matches(const Row& row) const {
    const Value& v = row[column_];
    if (v.index() != static_cast<size_t>(type_)) return false;
    switch (type_) {
      case ValueType::kInt64:
        return Test(CompareNative(*std::get_if<int64_t>(&v), int_));
      case ValueType::kDouble:
        return Test(CompareNative(*std::get_if<double>(&v), double_));
      case ValueType::kString:
        break;
    }
    const std::string& s = *std::get_if<std::string>(&v);
    if (op_ == CmpOp::kPrefix) {
      return s.size() >= string_.size() &&
             s.compare(0, string_.size(), string_) == 0;
    }
    const int c = s.compare(string_);
    return Test(c < 0 ? -1 : (c > 0 ? 1 : 0));
  }

 private:
  bool Test(int cmp) const {
    switch (op_) {
      case CmpOp::kEq:
        return cmp == 0;
      case CmpOp::kNe:
        return cmp != 0;
      case CmpOp::kLt:
        return cmp < 0;
      case CmpOp::kLe:
        return cmp <= 0;
      case CmpOp::kGt:
        return cmp > 0;
      case CmpOp::kGe:
        return cmp >= 0;
      case CmpOp::kPrefix:
        return false;  // only a string literal prefixes, and never a number
    }
    return false;
  }

  size_t column_;
  CmpOp op_;
  ValueType type_;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
};

}  // namespace mmdb

#endif  // MMDB_OPTIMIZER_PREDICATE_H_
