#include "optimizer/predicate.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string_view>
#include <type_traits>

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

/// BoundPredicate::Select's loop with the match test `keep(record)`.
template <typename Keep>
int64_t SelectWith(const Relation& source, const int64_t* in, int64_t first,
                   int64_t n, int64_t* out, const Keep& keep) {
  int64_t k = 0;
  if (in != nullptr) {
    for (int64_t j = 0; j < n; ++j) {
      const int64_t ord = in[j];
      out[k] = ord;
      k += keep(source.record(ord));
    }
    return k;
  }
  // A range of records: walk each block's records by stride.
  const int32_t size = source.schema().record_size();
  const int64_t last = first + n;
  for (int64_t begin = first; begin < last;) {
    const int64_t end = std::min(
        last, (begin | (Relation::kBlockRecords - 1)) + 1);  // block end
    const char* rec = source.record(begin);
    for (int64_t i = begin; i < end; ++i, rec += size) {
      out[k] = i;
      k += keep(rec);
    }
    begin = end;
  }
  return k;
}

/// `v <op> lit` for a field value `v` of type T: INT64, DOUBLE or a CHAR
/// as a string_view. Agrees with the three-way CompareValues; a double is
/// spelled with < and > only, so that a NaN compares equal to everything,
/// as CompareNative has it. kPrefix holds for strings only.
template <CmpOp kOp, typename T>
bool Holds(T v, T lit) {
  if constexpr (kOp == CmpOp::kPrefix) {
    if constexpr (std::is_same_v<T, std::string_view>) {
      return v.substr(0, lit.size()) == lit;
    } else {
      return false;
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    if constexpr (kOp == CmpOp::kEq) return !(v < lit) & !(v > lit);
    if constexpr (kOp == CmpOp::kNe) return (v < lit) | (v > lit);
    if constexpr (kOp == CmpOp::kLt) return v < lit;
    if constexpr (kOp == CmpOp::kLe) return !(v > lit);
    if constexpr (kOp == CmpOp::kGt) return v > lit;
    if constexpr (kOp == CmpOp::kGe) return !(v < lit);
  } else {
    if constexpr (kOp == CmpOp::kEq) return v == lit;
    if constexpr (kOp == CmpOp::kNe) return v != lit;
    if constexpr (kOp == CmpOp::kLt) return v < lit;
    if constexpr (kOp == CmpOp::kLe) return v <= lit;
    if constexpr (kOp == CmpOp::kGt) return v > lit;
    if constexpr (kOp == CmpOp::kGe) return v >= lit;
  }
}

/// Returns fn(op) with `op` a std::integral_constant for `op`.
template <typename Fn>
auto WithOp(CmpOp op, const Fn& fn) {
  using C = CmpOp;
  switch (op) {
    case C::kEq:
      return fn(std::integral_constant<C, C::kEq>{});
    case C::kNe:
      return fn(std::integral_constant<C, C::kNe>{});
    case C::kLt:
      return fn(std::integral_constant<C, C::kLt>{});
    case C::kLe:
      return fn(std::integral_constant<C, C::kLe>{});
    case C::kGt:
      return fn(std::integral_constant<C, C::kGt>{});
    case C::kGe:
      return fn(std::integral_constant<C, C::kGe>{});
    case C::kPrefix:
      break;
  }
  return fn(std::integral_constant<C, C::kPrefix>{});
}

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

template <typename Fn>
auto BoundPredicate::WithTest(const Fn& fn) const {
  const Field f = field_;
  return WithOp(op_, [&](auto op) {
    constexpr CmpOp kOp = decltype(op)::value;
    switch (f.type) {
      case ValueType::kInt64:
        return fn([f, lit = int_](const char* rec) {
          return Holds<kOp>(f.Int(rec), lit);
        });
      case ValueType::kDouble:
        return fn([f, lit = double_](const char* rec) {
          return Holds<kOp>(f.Double(rec), lit);
        });
      case ValueType::kString:
        break;
    }
    return fn([f, lit = std::string_view(string_)](const char* rec) {
      return Holds<kOp>(f.Chars(rec), lit);
    });
  });
}

int64_t BoundPredicate::Select(const Relation& source, const int64_t* in,
                               int64_t first, int64_t n, int64_t* out) const {
  if (never_) return 0;
  return WithTest([&](const auto& keep) {
    return SelectWith(source, in, first, n, out, keep);
  });
}

bool BoundPredicate::Matches(const char* rec) const {
  if (never_) return false;
  return WithTest([rec](const auto& keep) { return keep(rec); });
}

BoundPredicate::BoundPredicate(const Predicate& pred, const Schema& schema,
                               int column)
    : field_(Field::Of(schema, column)),
      op_(pred.op),
      never_(TypeOf(pred.literal) != field_.type) {
  if (never_) return;
  switch (field_.type) {
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

int64_t SelectBlock(const Relation& source, const int64_t* in, int64_t first,
                    int64_t n, const std::vector<BoundPredicate>& preds,
                    int64_t* out, int64_t* comps) {
  if (preds.empty()) {
    if (in != nullptr) {
      std::copy(in, in + n, out);
    } else {
      std::iota(out, out + n, first);
    }
    return n;
  }
  for (const BoundPredicate& pred : preds) {
    *comps += n;
    n = pred.Select(source, in, first, n, out);
    in = out;
  }
  return n;
}

}  // namespace mmdb
