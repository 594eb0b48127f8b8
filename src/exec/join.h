#ifndef MMDB_EXEC_JOIN_H_
#define MMDB_EXEC_JOIN_H_

#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/hash_directory.h"
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

/// In-memory hash table keyed on one field of fixed-width records: the
/// records' addresses, chained by key hash in insertion order in one
/// HashChains table. The table stores record addresses, so the records
/// must stay put while it is used (a Relation's never move). The table
/// charges nothing; its callers charge the paper's costs: Hash and Move on
/// insert (the partitioning hash and the table hash are the same
/// conceptual hash in the paper's formulas), a Hash per probe, and the key
/// comparisons a probe reports (~F per probe on average, matching the
/// ||S||·F·comp term).
class JoinHashTable {
 public:
  JoinHashTable(const Schema& schema, int key_column)
      : key_(Field::Of(schema, key_column)) {}

  /// Stores the record at `rec`.
  void Insert(const char* rec) {
    chains_.Add(key_.Hash(rec));
    records_.push_back(rec);
  }

  /// Probes with the `n` <= kHashBatch records at `probes`, whose key is
  /// field `key` (of the table key's type): calls `emit(record, i)` for
  /// every stored record whose key equals probes[i]'s, in probe order and,
  /// within one probe, in insertion order. Returns the Comps the probes
  /// cost: one per chain entry scanned, or one for a miss. The key type is
  /// resolved once per batch; the directory lookup runs on the whole
  /// batch, and only the probes that find a chain walk one.
  template <typename Emit>
  int64_t ProbeBatch(const Field& key, const char* const* probes, int n,
                     const Emit& emit) const {
    return WithFieldOps(key_.type, [&](auto ops) {
      uint64_t hashes[kHashBatch];
      for (int i = 0; i < n; ++i) hashes[i] = ops.Hash(key, probes[i]);
      uint32_t heads[kHashBatch];
      chains_.Heads(hashes, n, heads);
      uint32_t hits[kHashBatch];
      int m = 0;
      for (int i = 0; i < n; ++i) {
        hits[m] = static_cast<uint32_t>(i);
        m += heads[i] != HashChains::kEnd;
      }
      int64_t comps = n - m;  // a miss still compares once
      for (int k = 0; k < m; ++k) {
        const int i = static_cast<int>(hits[k]);
        for (uint32_t e = heads[i]; e != HashChains::kEnd;
             e = chains_.next(e)) {
          ++comps;
          const char* rec = records_[e];
          if (ops.Compare(key_, rec, key, probes[i]) == 0) emit(rec, i);
        }
      }
      return comps;
    });
  }

  /// ProbeBatch with the one record at `probe`: calls `fn(record)` per
  /// match and returns the Comps.
  template <typename Fn>
  int64_t Match(const Field& key, const char* probe, Fn&& fn) const {
    return ProbeBatch(key, &probe, 1,
                      [&fn](const char* rec, int) { fn(rec); });
  }

  int64_t size() const { return chains_.size(); }
  /// Heap bytes of the chained table and the record addresses (not the
  /// records).
  int64_t allocated_bytes() const {
    return chains_.allocated_bytes() +
           static_cast<int64_t>(records_.capacity() * sizeof(records_[0]));
  }

 private:
  Field key_;
  HashChains chains_;
  std::vector<const char*> records_;  // by entry
};

/// Appends the joined record r ++ s to `out`, whose schema is
/// Schema::Concat of r's (records of `r_size` bytes) and s's.
inline void EmitJoined(const char* r_rec, int32_t r_size, const char* s_rec,
                       Relation* out) {
  char* dst = out->AppendRecord();
  std::memcpy(dst, r_rec, static_cast<size_t>(r_size));
  std::memcpy(dst + r_size, s_rec,
              static_cast<size_t>(out->schema().record_size() - r_size));
}

/// The in-memory hash join of the paper's formulas: builds a table over
/// every record of `r` on `r_key` (one Hash and one Move each), then
/// probes it, a batch at a time, with each record `next_s(buf)` yields
/// until null (one Hash each, plus the probe's Comps), appending r ++ s to
/// `out` in probe order. `next_s` returns a record that stays put, or
/// reads the record into `buf` (s's record size) and returns `buf`.
template <typename NextS>
void BuildAndProbe(const Relation& r, int r_key, const Schema& s_schema,
                   int s_key, NextS&& next_s, ExecContext* ctx,
                   Relation* out) {
  JoinHashTable table(r.schema(), r_key);
  for (int64_t i = 0; i < r.num_tuples(); ++i) table.Insert(r.record(i));
  ctx->clock->Hash(r.num_tuples());
  ctx->clock->Move(r.num_tuples());
  const Field key = Field::Of(s_schema, s_key);
  const int32_t r_size = r.schema().record_size();
  const size_t s_size = static_cast<size_t>(s_schema.record_size());
  // One record buffer per batch row, written only by a `next_s` that reads.
  const std::unique_ptr<char[]> bufs(new char[s_size * kHashBatch]);
  const char* probes[kHashBatch];
  int64_t hashes = 0;
  int64_t comps = 0;
  for (bool more = true; more;) {
    int n = 0;
    while (n < kHashBatch) {
      const char* s_rec = next_s(bufs.get() + s_size * n);
      if (s_rec == nullptr) {
        more = false;
        break;
      }
      probes[n++] = s_rec;
    }
    hashes += n;
    comps += table.ProbeBatch(key, probes, n, [&](const char* r_rec, int i) {
      EmitJoined(r_rec, r_size, probes[i], out);
    });
  }
  ctx->clock->Hash(hashes);
  ctx->clock->Comp(comps);
}

/// BuildAndProbe's `next_s` over the records of `s`.
inline auto RecordsOf(const Relation& s) {
  return [&s, i = int64_t{0}](char*) mutable {
    return i < s.num_tuples() ? s.record(i++) : nullptr;
  };
}

/// The in-memory hash join's probe, shared by the plan executor's hybrid
/// join and its CachedBuild serve (DESIGN.md §14, §15): probes a complete
/// build `table` (records of `build_schema`) with every row of `probe`,
/// read in place, kHashBatch rows at a time, and returns build row ++
/// probe row for each match in probe input order, build insertion order
/// within a key. Charges the single-partition hybrid's probe side: one
/// Hash per probe tuple, one Comp per chain entry scanned or per miss.
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
