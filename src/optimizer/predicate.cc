#include "optimizer/predicate.h"

#include <algorithm>

#include "common/check.h"

namespace mmdb {

std::string_view CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kPrefix:
      return "=~";
  }
  return "?";
}

std::string Predicate::ToString() const {
  std::string out = table;
  out += ".";
  out += column;
  out += " ";
  out += CmpOpName(op);
  out += " ";
  out += ValueToString(literal);
  if (op == CmpOp::kPrefix) out += "*";
  return out;
}

namespace {

double AsDouble(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return double(std::get<int64_t>(v));
  }
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  return 0;
}

}  // namespace

double EstimateSelectivity(const Predicate& pred, const TableEntry& entry) {
  auto idx = entry.relation->schema().ColumnIndex(pred.column);
  if (!idx.ok()) return 1.0;
  const ColumnStats& cs =
      entry.stats.columns[static_cast<size_t>(idx.value())];
  const double distinct = std::max<double>(1, double(cs.num_distinct));
  switch (pred.op) {
    case CmpOp::kEq:
      return 1.0 / distinct;
    case CmpOp::kNe:
      return 1.0 - 1.0 / distinct;
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe: {
      if (!cs.has_min_max || TypeOf(cs.min_value) == ValueType::kString) {
        return 1.0 / 3.0;  // [SELI79]'s default
      }
      const double lo = AsDouble(cs.min_value);
      const double hi = AsDouble(cs.max_value);
      const double x = AsDouble(pred.literal);
      if (hi <= lo) return 0.5;
      double frac = (x - lo) / (hi - lo);
      frac = std::clamp(frac, 0.0, 1.0);
      if (pred.op == CmpOp::kLt || pred.op == CmpOp::kLe) return frac;
      return 1.0 - frac;
    }
    case CmpOp::kPrefix: {
      // Heuristic: a k-character prefix over ~26 stems; without better
      // statistics assume 1/26 per leading character, floored at 1/distinct.
      const std::string& s = std::get<std::string>(pred.literal);
      double sel = 1.0;
      for (size_t i = 0; i < std::min<size_t>(s.size(), 2); ++i) sel /= 26.0;
      return std::max(sel, 1.0 / distinct);
    }
  }
  return 1.0;
}

BoundPredicate::BoundPredicate(const Predicate& pred, size_t column)
    : column_(column), op_(pred.op), type_(TypeOf(pred.literal)) {
  switch (type_) {
    case ValueType::kInt64:
      int_ = std::get<int64_t>(pred.literal);
      break;
    case ValueType::kDouble:
      double_ = std::get<double>(pred.literal);
      break;
    case ValueType::kString:
      string_ = std::get<std::string>(pred.literal);
      break;
  }
}

}  // namespace mmdb
