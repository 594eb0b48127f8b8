#ifndef MMDB_OPTIMIZER_PREDICATE_H_
#define MMDB_OPTIMIZER_PREDICATE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/catalog.h"
#include "storage/relation.h"
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

/// A Predicate resolved once, before a record loop: the field it reads,
/// its operator and its literal as a native value. Matches(rec) is
/// `field <op> literal` on the field's bytes in place, agreeing with
/// CompareValues on the materialized field. A literal of another type than
/// the column never matches, kPrefix matches strings only, and the other
/// operators test the three-way comparison.
class BoundPredicate {
 public:
  BoundPredicate(const Predicate& pred, const Schema& schema, int column);

  /// Writes to `out`, in order, the ordinals of `source`'s records that
  /// match: of the `n` ordinals at `in`, or of records first..first+n-1
  /// when `in` is null. Returns how many it wrote. Each candidate is
  /// written and only a match advances the end, so the loop does not
  /// branch on the outcome; `out` may be `in`.
  int64_t Select(const Relation& source, const int64_t* in, int64_t first,
                 int64_t n, int64_t* out) const;

  /// Whether the record at `rec` matches: the test Select runs.
  bool Matches(const char* rec) const;

 private:
  /// Returns fn(keep), where keep(rec) is this predicate's test of the
  /// record at `rec`, specialized for the field's type and the operator.
  template <typename Fn>
  auto WithTest(const Fn& fn) const;

  Field field_;
  CmpOp op_;
  bool never_;  ///< the literal's type is not the column's
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
};

/// The conjunction `preds` over one block of rows: writes to `out`, in
/// order, the ordinals of the rows that pass every predicate — of the `n`
/// ordinals at `in`, or of records first..first+n-1 when `in` is null —
/// and returns how many. Each predicate reads only the survivors of those
/// before it, so a row costs one Comp per predicate evaluated with early
/// exit; adds those Comps to `*comps`. With no predicate every row passes.
/// `out` has room for `n` and may be `in`.
int64_t SelectBlock(const Relation& source, const int64_t* in, int64_t first,
                    int64_t n, const std::vector<BoundPredicate>& preds,
                    int64_t* out, int64_t* comps);

/// The block pipeline's source (DESIGN.md §14): runs `preds` over `n` rows
/// of `source` — the ordinals at `sel`, or records 0..n-1 when `sel` is
/// null — a block of Relation::kBlockRecords rows at a time (SelectBlock),
/// and hands each block's survivors to `sink(ordinals, k)`, in order,
/// while their records are still in cache. A block with no survivor is
/// not handed on. Adds the Comps to `*comps`.
template <typename Sink>
void SelectBlocks(const Relation& source, const int64_t* sel, int64_t n,
                  const std::vector<BoundPredicate>& preds, int64_t* comps,
                  const Sink& sink) {
  int64_t survivors[Relation::kBlockRecords];
  for (int64_t first = 0; first < n; first += Relation::kBlockRecords) {
    const int64_t k = SelectBlock(
        source, sel != nullptr ? sel + first : nullptr, first,
        std::min(Relation::kBlockRecords, n - first), preds, survivors, comps);
    if (k > 0) sink(static_cast<const int64_t*>(survivors), k);
  }
}

}  // namespace mmdb

#endif  // MMDB_OPTIMIZER_PREDICATE_H_
