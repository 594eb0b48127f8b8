#include "exec/batch.h"

#include <algorithm>

#include "common/check.h"

namespace mmdb {

void ColumnVector::Append(const Value& v) {
  switch (type) {
    case ValueType::kInt64:
      i64.push_back(std::get<int64_t>(v));
      return;
    case ValueType::kDouble:
      f64.push_back(std::get<double>(v));
      return;
    case ValueType::kString:
      str.push_back(std::get<std::string>(v));
      return;
  }
}

Value ColumnVector::At(int64_t i) const {
  switch (type) {
    case ValueType::kInt64:
      return Value{i64[static_cast<size_t>(i)]};
    case ValueType::kDouble:
      return Value{f64[static_cast<size_t>(i)]};
    case ValueType::kString:
      return Value{str[static_cast<size_t>(i)]};
  }
  return Value{};
}

void RowBatch::Reset(const Schema& s) {
  schema = &s;
  columns.resize(static_cast<size_t>(s.num_columns()));
  for (int c = 0; c < s.num_columns(); ++c) {
    columns[static_cast<size_t>(c)].type = s.column(c).type;
    columns[static_cast<size_t>(c)].Clear();
  }
  sel.clear();
  sel_active = false;
  num_rows = 0;
}

Row RowBatch::RowAt(int64_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const ColumnVector& col : columns) {
    row.push_back(col.At(i));
  }
  return row;
}

namespace {

// Transposes rows [begin, end) — row i is `row_at(i)` — into `batch`
// (already Reset to the output schema), reading source column
// `src_cols[c]` into batch column `c`. The value-type switch runs once per
// column, so the inner loops are tight std::get loops over one type.
template <typename RowAt>
void TransposeInto(const RowAt& row_at, int64_t begin, int64_t end,
                   const std::vector<int>& src_cols, RowBatch* batch) {
  const size_t take = static_cast<size_t>(end - begin);
  for (size_t c = 0; c < src_cols.size(); ++c) {
    const size_t src = static_cast<size_t>(src_cols[c]);
    ColumnVector& col = batch->columns[c];
    switch (col.type) {
      case ValueType::kInt64:
        col.i64.reserve(take);
        for (int64_t i = begin; i < end; ++i) {
          col.i64.push_back(std::get<int64_t>(row_at(i)[src]));
        }
        break;
      case ValueType::kDouble:
        col.f64.reserve(take);
        for (int64_t i = begin; i < end; ++i) {
          col.f64.push_back(std::get<double>(row_at(i)[src]));
        }
        break;
      case ValueType::kString:
        col.str.reserve(take);
        for (int64_t i = begin; i < end; ++i) {
          col.str.push_back(std::get<std::string>(row_at(i)[src]));
        }
        break;
    }
  }
  batch->num_rows = end - begin;
}

}  // namespace

StatusOr<bool> BatchMemScan::NextBatch(RowBatch* batch) {
  if (pos_ >= end_) return false;
  const int64_t take = std::min(kBatchRows, end_ - pos_);
  batch->Reset(schema_);
  const std::vector<Row>& rows = relation_->rows();
  TransposeInto(
      [&rows](int64_t i) -> const Row& { return rows[static_cast<size_t>(i)]; },
      pos_, pos_ + take, columns_, batch);
  pos_ += take;
  return true;
}

std::vector<CompiledPredicate> CompilePredicates(
    const Schema& schema, const std::vector<Predicate>& preds,
    const std::vector<int>& col_indexes) {
  MMDB_CHECK(preds.size() == col_indexes.size());
  std::vector<CompiledPredicate> out;
  out.reserve(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    CompiledPredicate cp;
    cp.column = col_indexes[i];
    cp.op = preds[i].op;
    cp.column_type = schema.column(cp.column).type;
    const ValueType lit_type = TypeOf(preds[i].literal);
    if (cp.op == CmpOp::kPrefix) {
      // Prefix requires string value AND string literal (EvalPredicate).
      cp.type_match = cp.column_type == ValueType::kString &&
                      lit_type == ValueType::kString;
    } else {
      cp.type_match = cp.column_type == lit_type;
    }
    if (cp.type_match) {
      switch (lit_type) {
        case ValueType::kInt64:
          cp.lit_i64 = std::get<int64_t>(preds[i].literal);
          break;
        case ValueType::kDouble:
          cp.lit_f64 = std::get<double>(preds[i].literal);
          break;
        case ValueType::kString:
          cp.lit_str = std::get<std::string>(preds[i].literal);
          break;
      }
    }
    out.push_back(std::move(cp));
  }
  return out;
}

namespace {

inline bool PassCmp(int cmp, CmpOp op) {
  switch (op) {
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
      return false;  // handled separately
  }
  return false;
}

template <typename T>
inline int Cmp3(const T& a, const T& b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

inline bool PrefixMatch(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

bool EvalCompiled(const CompiledPredicate& p, const Row& row) {
  if (!p.type_match) return false;
  const Value& v = row[static_cast<size_t>(p.column)];
  switch (p.column_type) {
    case ValueType::kInt64:
      return PassCmp(Cmp3(std::get<int64_t>(v), p.lit_i64), p.op);
    case ValueType::kDouble:
      return PassCmp(Cmp3(std::get<double>(v), p.lit_f64), p.op);
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(v);
      if (p.op == CmpOp::kPrefix) return PrefixMatch(s, p.lit_str);
      return PassCmp(Cmp3<std::string>(s, p.lit_str), p.op);
    }
  }
  return false;
}

BatchFilter::BatchFilter(std::unique_ptr<BatchOperator> child,
                         std::vector<Predicate> preds,
                         std::vector<int> col_indexes, CostClock* clock)
    : child_(std::move(child)),
      compiled_(
          CompilePredicates(child_->output_schema(), preds, col_indexes)),
      clock_(clock) {}

void BatchFilter::FilterBatch(const std::vector<CompiledPredicate>& preds,
                              CostClock* clock, RowBatch* batch) {
  // Each predicate scans only the rows still selected, writing the
  // survivors back into the (shrinking) selection vector. The evaluation
  // count — and hence the Comp charges — therefore equals the tuple
  // filter's per-row early exit.
  for (const CompiledPredicate& p : preds) {
    const int64_t in_rows = batch->ActiveRows();
    if (in_rows == 0) break;
    if (clock != nullptr) clock->Comp(in_rows);
    const ColumnVector& col = batch->columns[static_cast<size_t>(p.column)];
    std::vector<int32_t> kept;
    kept.reserve(static_cast<size_t>(in_rows));
    if (!p.type_match) {
      // Type-mismatched predicate rejects every row (EvalPredicate
      // semantics) but was still evaluated once per live row.
      batch->sel.clear();
      batch->sel_active = true;
      continue;
    }
    switch (p.column_type) {
      case ValueType::kInt64:
        for (int64_t k = 0; k < in_rows; ++k) {
          const int32_t i = static_cast<int32_t>(batch->ActiveIndex(k));
          if (PassCmp(Cmp3(col.i64[static_cast<size_t>(i)], p.lit_i64),
                      p.op)) {
            kept.push_back(i);
          }
        }
        break;
      case ValueType::kDouble:
        for (int64_t k = 0; k < in_rows; ++k) {
          const int32_t i = static_cast<int32_t>(batch->ActiveIndex(k));
          if (PassCmp(Cmp3(col.f64[static_cast<size_t>(i)], p.lit_f64),
                      p.op)) {
            kept.push_back(i);
          }
        }
        break;
      case ValueType::kString:
        for (int64_t k = 0; k < in_rows; ++k) {
          const int32_t i = static_cast<int32_t>(batch->ActiveIndex(k));
          const std::string& s = col.str[static_cast<size_t>(i)];
          const bool pass = p.op == CmpOp::kPrefix
                                ? PrefixMatch(s, p.lit_str)
                                : PassCmp(Cmp3<std::string>(s, p.lit_str),
                                          p.op);
          if (pass) kept.push_back(i);
        }
        break;
    }
    batch->sel = std::move(kept);
    batch->sel_active = true;
  }
}

StatusOr<bool> BatchFilter::NextBatch(RowBatch* batch) {
  MMDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(batch));
  if (!more) return false;
  FilterBatch(compiled_, clock_, batch);
  return true;
}

BatchProject::BatchProject(std::unique_ptr<BatchOperator> child,
                           std::vector<int> columns)
    : child_(std::move(child)),
      columns_(std::move(columns)),
      schema_(child_->output_schema().Select(columns_)) {}

StatusOr<bool> BatchProject::NextBatch(RowBatch* batch) {
  MMDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
  if (!more) return false;
  batch->Reset(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    // Column-major projection: the whole column moves (or could be viewed)
    // at once; no per-row reassembly.
    batch->columns[c] =
        std::move(child_batch_.columns[static_cast<size_t>(columns_[c])]);
  }
  batch->num_rows = child_batch_.num_rows;
  batch->sel = std::move(child_batch_.sel);
  batch->sel_active = child_batch_.sel_active;
  return true;
}

StatusOr<Relation> MaterializeBatches(BatchOperator* op) {
  MMDB_RETURN_IF_ERROR(op->Open());
  Relation out(op->output_schema());
  RowBatch batch;
  while (true) {
    MMDB_ASSIGN_OR_RETURN(bool more, op->NextBatch(&batch));
    if (!more) break;
    const int64_t n = batch.ActiveRows();
    for (int64_t k = 0; k < n; ++k) {
      out.Add(batch.RowAt(batch.ActiveIndex(k)));
    }
  }
  op->Close();
  return out;
}

void RowRefsToBatch(const Row* const* rows, int64_t n, const Schema& schema,
                    const std::vector<int>& src_cols, RowBatch* batch) {
  batch->Reset(schema);
  TransposeInto([rows](int64_t i) -> const Row& { return *rows[i]; }, 0, n,
                src_cols, batch);
}

}  // namespace mmdb
