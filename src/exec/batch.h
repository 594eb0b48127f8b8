#ifndef MMDB_EXEC_BATCH_H_
#define MMDB_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "exec/join.h"
#include "optimizer/predicate.h"
#include "storage/relation.h"
#include "storage/row.h"
#include "storage/row_view.h"

namespace mmdb {

/// Rows per RowBatch: big enough to amortize per-batch dispatch to nothing,
/// small enough that one batch's working set (a few columns x 1024 values)
/// stays L1/L2-resident while an operator loops over it.
inline constexpr int64_t kBatchRows = 1024;

/// One column of a RowBatch: values of a single type, stored contiguously
/// so operator kernels loop over plain arrays instead of dispatching on a
/// std::variant per value.
struct ColumnVector {
  ValueType type = ValueType::kInt64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;

  void Clear() {
    i64.clear();
    f64.clear();
    str.clear();
  }

  int64_t size() const {
    switch (type) {
      case ValueType::kInt64:
        return static_cast<int64_t>(i64.size());
      case ValueType::kDouble:
        return static_cast<int64_t>(f64.size());
      case ValueType::kString:
        return static_cast<int64_t>(str.size());
    }
    return 0;
  }

  void Append(const Value& v);
  Value At(int64_t i) const;
};

/// A batch of up to kBatchRows tuples in column-major layout, plus a
/// selection vector: filters never compact the columns, they shrink `sel`
/// (the ascending indexes of the surviving rows), so downstream kernels
/// loop over `sel` without any data movement.
struct RowBatch {
  const Schema* schema = nullptr;
  std::vector<ColumnVector> columns;
  std::vector<int32_t> sel;
  bool sel_active = false;  ///< false => all num_rows rows are live
  int64_t num_rows = 0;     ///< physical rows in the columns

  /// Rebinds the batch to `schema`, clearing columns and selection but
  /// keeping their capacity (batches are reused across NextBatch calls).
  void Reset(const Schema& s);

  int64_t ActiveRows() const {
    return sel_active ? static_cast<int64_t>(sel.size()) : num_rows;
  }
  /// Physical index of the k-th live row.
  int64_t ActiveIndex(int64_t k) const {
    return sel_active ? sel[static_cast<size_t>(k)] : k;
  }

  /// Reconstructs physical row `i` (used when handing rows back to the
  /// row-major world).
  Row RowAt(int64_t i) const;
};

/// Batch-at-a-time pull iterator — the vectorized sibling of Operator.
/// Pipelines move ~kBatchRows tuples per virtual call instead of one, so
/// dispatch and predicate setup amortize across the batch and the inner
/// loops run over contiguous typed arrays.
class BatchOperator {
 public:
  virtual ~BatchOperator() = default;

  virtual Status Open() = 0;
  /// Fills `*batch` with the next batch; returns false at end of stream.
  /// The callee may leave a selection vector active.
  virtual StatusOr<bool> NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;

  virtual const Schema& output_schema() const = 0;
};

/// Scans a slice [begin, end) of a memory-resident relation (the whole
/// relation by default), transposing kBatchRows rows at a time into
/// column-major form. The type dispatch happens once per column per batch,
/// not once per value.
///
/// Passing `columns` fuses a projection into the scan: only those columns
/// are transposed (in the given order) and output_schema() is the projected
/// schema. Cold columns the pipeline never reads are then never copied out
/// of the row-major storage — the column-pruning half of the cache-conscious
/// story, and where most of bench_vector_exec's pipeline speedup comes from.
class BatchMemScan : public BatchOperator {
 public:
  explicit BatchMemScan(const Relation* relation, int64_t begin = 0,
                        int64_t end = -1)
      : relation_(relation),
        begin_(begin),
        end_(end < 0 ? relation->num_tuples() : end) {
    const int ncols = relation->schema().num_columns();
    columns_.reserve(static_cast<size_t>(ncols));
    for (int c = 0; c < ncols; ++c) columns_.push_back(c);
    schema_ = relation->schema();
  }
  BatchMemScan(const Relation* relation, int64_t begin, int64_t end,
               std::vector<int> columns)
      : relation_(relation),
        begin_(begin),
        end_(end < 0 ? relation->num_tuples() : end),
        columns_(std::move(columns)),
        schema_(relation->schema().Select(columns_)) {}

  Status Open() override {
    pos_ = begin_;
    return Status::OK();
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override {}
  const Schema& output_schema() const override { return schema_; }

 private:
  const Relation* relation_;
  int64_t begin_;
  int64_t end_;
  std::vector<int> columns_;
  Schema schema_;
  int64_t pos_ = 0;
};

/// A predicate compiled against a fixed schema: the column index, the
/// comparison, and the literal pre-extracted into its typed slot, with the
/// column-vs-literal type agreement decided once instead of per row. Keeps
/// EvalPredicate's semantics exactly (type mismatch rejects the row).
struct CompiledPredicate {
  int column = 0;
  CmpOp op = CmpOp::kEq;
  ValueType column_type = ValueType::kInt64;
  bool type_match = false;  ///< literal type agrees with the column type
  int64_t lit_i64 = 0;
  double lit_f64 = 0;
  std::string lit_str;
};

/// Compiles `preds` (with their already-resolved column indexes) against
/// `schema`.
std::vector<CompiledPredicate> CompilePredicates(
    const Schema& schema, const std::vector<Predicate>& preds,
    const std::vector<int>& col_indexes);

/// Evaluates one compiled predicate against a row-major tuple — used by the
/// executor's vectorized filter fallback paths and by tests as the oracle
/// bridge. Exactly EvalPredicate's result, minus its per-call type dispatch.
bool EvalCompiled(const CompiledPredicate& p, const Row& row);

/// Filters batches through a conjunction of compiled predicates. Charges
/// one Comp per predicate actually evaluated: predicate j runs only over
/// the rows that survived predicates 0..j-1 (the selection vector shrinks
/// between stages), which is exactly the tuple Filter's early-exit pattern
/// — so the cost-clock totals match the tuple path bit for bit.
class BatchFilter : public BatchOperator {
 public:
  BatchFilter(std::unique_ptr<BatchOperator> child,
              std::vector<Predicate> preds, std::vector<int> col_indexes,
              CostClock* clock);

  Status Open() override { return child_->Open(); }
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  /// Applies the compiled conjunction to one batch in place (the kernel
  /// NextBatch wraps; exposed for the executor's morsel-parallel filter).
  static void FilterBatch(const std::vector<CompiledPredicate>& preds,
                          CostClock* clock, RowBatch* batch);

 private:
  std::unique_ptr<BatchOperator> child_;
  std::vector<CompiledPredicate> compiled_;
  CostClock* clock_;
};

/// Projects each batch to a subset of columns (column-major projection is
/// pointer swizzling per batch, not value movement per row).
class BatchProject : public BatchOperator {
 public:
  BatchProject(std::unique_ptr<BatchOperator> child, std::vector<int> columns);

  Status Open() override { return child_->Open(); }
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override { return schema_; }

 private:
  std::unique_ptr<BatchOperator> child_;
  std::vector<int> columns_;
  Schema schema_;
  RowBatch child_batch_;
};

/// Drains a batch pipeline into a materialized row-major Relation.
StatusOr<Relation> MaterializeBatches(BatchOperator* op);

/// Transposes `n` rows given by reference into `batch`, bound to `schema`:
/// batch column c holds source column `src_cols[c]` of each row. The
/// executor's vector filter reads a row-reference view this way.
void RowRefsToBatch(const Row* const* rows, int64_t n, const Schema& schema,
                    const std::vector<int>& src_cols, RowBatch* batch);

/// §3.9 hash aggregation over a batch pipeline: the serial in-memory case
/// runs a typed column-at-a-time kernel (group hashes computed column-wise,
/// aggregate updates without per-value variant dispatch) whose cost-clock
/// charges, metrics, result bytes AND emission order are identical to
/// HashAggregate on the same input. Inputs that exceed the memory grant —
/// or DOP > 1 — delegate to the row-major machinery, so parity holds
/// unconditionally.
StatusOr<Relation> BatchHashAggregate(BatchOperator* child,
                                      const AggregateSpec& spec,
                                      ExecContext* ctx,
                                      AggStats* stats = nullptr);

/// Vectorized hash-join probe: the build side materializes into the same
/// JoinHashTable the tuple join uses, then the probe keys hash
/// column-at-a-time and walk the buckets directly. Charge- and
/// byte-identical to ExecuteJoin(kHybridHash) on the same inputs: when the
/// build does not fit the grant (or DOP > 1) it delegates to
/// HybridHashJoin. Publishes the same exec.join.* metrics as ExecuteJoin.
StatusOr<Relation> VectorHashJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx,
                                  JoinRunStats* stats = nullptr);

namespace exec_internal {

/// The in-memory hash join's probe, shared by VectorHashJoin and the plan
/// executor's hybrid join and CachedBuild serve (DESIGN.md §14, §15):
/// probes a complete build `table` (rows of `build_schema`) with every row
/// of `probe`, read in place, and returns build row ++ probe row for each
/// match in probe input order, bucket-scan order within a key. Charges the
/// single-partition hybrid's probe side: one Hash per probe tuple, one
/// Comp per bucket entry scanned or per miss. The vector flavor computes
/// the key hashes of kBatchRows probe rows in one typed pass, then walks
/// the buckets back to back; its bytes and charges are the tuple flavor's.
Relation ProbeHashTable(const JoinHashTable& table, const Schema& build_schema,
                        const RowView& probe, int probe_key, bool vector,
                        ExecContext* ctx);

}  // namespace exec_internal

/// Cache-partitioned (radix) hash join: both sides partition by the top
/// hash bits into enough partitions that one build partition's hash table
/// fits half of `l2_bytes`, then each pair builds and probes inside the
/// cache. Same cost-clock convention as the in-memory hash join (one Hash
/// per tuple, one Move per build tuple, one Comp per bucket entry probed);
/// the benefit is real nanoseconds, which bench_vector_exec measures.
/// Output order is partition-major (it is its own algorithm, not a
/// drop-in replacement for the hybrid's order).
StatusOr<Relation> RadixHashJoin(const Relation& r, const Relation& s,
                                 const JoinSpec& spec, ExecContext* ctx,
                                 JoinRunStats* stats = nullptr,
                                 int64_t l2_bytes = 256 * 1024);

/// Cache-conscious in-memory sort: sample-based range partitioning into
/// L2-sized chunks, stable sort per chunk, concatenate (the partitions are
/// ordered, so the "merge" is a concatenation). Stable overall — result
/// rows equal Relation::SortBy on the same column. Charges one Comp per
/// key comparison performed and one Move per output placement.
StatusOr<Relation> CacheConsciousSort(const Relation& input, int key_column,
                                      ExecContext* ctx,
                                      int64_t l2_bytes = 256 * 1024);

}  // namespace mmdb

#endif  // MMDB_EXEC_BATCH_H_
