#ifndef MMDB_EXEC_JOIN_H_
#define MMDB_EXEC_JOIN_H_

#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "storage/relation.h"
#include "storage/row_view.h"

namespace mmdb {

/// The §3 contenders (plus the nested-loop oracle used by tests).
enum class JoinAlgorithm {
  kNestedLoop,
  kSortMerge,
  kSimpleHash,
  kGraceHash,
  kHybridHash,
};

std::string_view JoinAlgorithmName(JoinAlgorithm a);

/// Equi-join condition: r.left_column == s.right_column. R is the smaller
/// (build) relation by the paper's convention |R| <= |S|.
struct JoinSpec {
  int left_column = 0;
  int right_column = 0;
};

/// Per-run diagnostics.
struct JoinRunStats {
  int64_t output_tuples = 0;
  int64_t passes = 0;            ///< simple hash
  int64_t partitions = 0;        ///< GRACE / hybrid spilled partitions
  double q = 1.0;                ///< hybrid resident fraction
  int recursion_depth = 0;       ///< hybrid overflow recursions
  int64_t migrations = 0;        ///< hybrid partitions destaged dynamically
  int64_t forced_probes = 0;     ///< single-key overflow partitions joined
                                 ///  without further re-partitioning
};

/// O(||R||·||S||) nested-loop join — the correctness oracle for the four
/// real algorithms. Charges one comparison per pair considered.
StatusOr<Relation> NestedLoopJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx);

/// §3.4 sort-merge join.
StatusOr<Relation> SortMergeJoin(const Relation& r, const Relation& s,
                                 const JoinSpec& spec, ExecContext* ctx,
                                 JoinRunStats* stats = nullptr);

/// §3.5 simple-hash join (multipass, passed-over files).
StatusOr<Relation> SimpleHashJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx,
                                  JoinRunStats* stats = nullptr);

/// §3.6 GRACE hash join (full partitioning, then per-partition hash join).
StatusOr<Relation> GraceHashJoin(const Relation& r, const Relation& s,
                                 const JoinSpec& spec, ExecContext* ctx,
                                 JoinRunStats* stats = nullptr);

/// §3.7 hybrid hash join (partition 0 resident; recursive overflow
/// handling per §3.3).
StatusOr<Relation> HybridHashJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx,
                                  JoinRunStats* stats = nullptr);

/// Dispatch by algorithm tag (used by the optimizer's plan executor).
StatusOr<Relation> ExecuteJoin(JoinAlgorithm algorithm, const Relation& r,
                               const Relation& s, const JoinSpec& spec,
                               ExecContext* ctx,
                               JoinRunStats* stats = nullptr);

namespace exec_internal {

/// Chained in-memory hash table keyed on one column. Charging convention:
/// the *caller* charges Hash/Move on insert (the partitioning hash and the
/// table hash are the same conceptual hash in the paper's formulas); Probe
/// charges the actual key comparisons performed (~F per probe on average,
/// matching the ||S||·F·comp term).
class JoinHashTable {
 public:
  JoinHashTable(int key_column, CostClock* clock)
      : key_column_(key_column), clock_(clock) {}

  /// Stores a row; charges nothing (see class comment).
  void Insert(Row row);

  /// Calls `fn` for every stored row whose key equals `key`. The caller
  /// must already have charged the probe's Hash (usually shared with
  /// partitioning).
  template <typename Fn>
  void Probe(const Value& key, Fn&& fn) const {
    ProbeWith(clock_, key, std::forward<Fn>(fn));
  }

  /// Probe charging an explicit clock. Once the build is complete the table
  /// is read-only, so parallel workers probe it concurrently, each charging
  /// a private clock (merged by the parallel region — DESIGN.md §8).
  template <typename Fn>
  void ProbeWith(CostClock* clock, const Value& key, Fn&& fn) const {
    const uint64_t h = HashValue(key);
    auto it = buckets_.find(h);
    if (it == buckets_.end()) {
      if (clock != nullptr) clock->Comp();  // the miss still compares
      return;
    }
    for (const Row& row : it->second) {
      if (clock != nullptr) clock->Comp();
      if (ValuesEqual(row[static_cast<size_t>(key_column_)], key)) {
        fn(row);
      }
    }
  }

  int key_column() const { return key_column_; }
  int64_t size() const { return size_; }

 private:
  int key_column_;
  CostClock* clock_;
  std::unordered_map<uint64_t, std::vector<Row>> buckets_;
  int64_t size_ = 0;
};

/// Emits the joined tuple r ++ s into `out`.
void EmitJoined(const Row& r_row, const Row& s_row, Relation* out);

/// The in-memory hash join's probe, shared by the plan executor's hybrid
/// join and its CachedBuild serve (DESIGN.md §14, §15): probes a complete
/// build `table` (rows of `build_schema`) with every row of `probe`, read
/// in place, and returns build row ++ probe row for each match in probe
/// input order, bucket-scan order within a key. Charges the
/// single-partition hybrid's probe side: one Hash per probe tuple, one
/// Comp per bucket entry scanned or per miss.
Relation ProbeHashTable(const JoinHashTable& table, const Schema& build_schema,
                        const RowView& probe, int probe_key, ExecContext* ctx);

/// Publishes one top-level join's exec.join.* counters. Every entry that
/// runs a whole join (ExecuteJoin, the plan executor's in-memory hybrid)
/// publishes through here, once per join: the GRACE and hybrid leaves
/// recurse internally and must not count again.
void PublishJoinRun(ExecContext* ctx, int64_t build_tuples,
                    int64_t probe_tuples, const JoinRunStats& st);

}  // namespace exec_internal

}  // namespace mmdb

#endif  // MMDB_EXEC_JOIN_H_
