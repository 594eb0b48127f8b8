#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "cost/join_cost.h"
#include "exec/join.h"
#include "exec/partitioner.h"
#include "storage/heap_file.h"

namespace mmdb {

namespace {

using exec_internal::JoinHashTable;

StatusOr<Relation> HybridHashJoinImpl(const Relation& r, const Relation& s,
                                      const JoinSpec& spec, ExecContext* ctx,
                                      JoinRunStats* stats, int depth);

/// Joins a spilled (R_p, S_p) pair. If R_p's hash table fits (or recursion
/// is exhausted), builds and probes directly; otherwise applies the hybrid
/// join recursively (§3.3: "if we err slightly we can always apply the
/// hybrid hash join recursively, thereby adding an extra pass for the
/// overflow tuples").
///
/// Recursion only helps if re-hashing can actually split the partition. An
/// all-duplicates partition (every build tuple carries the same key — the
/// skew case §3.3 worries about) maps to ONE partition at every level no
/// matter the hash, so re-partitioning it rewrites the whole pair to disk
/// fruitlessly until the depth cap. Detect that up front and force the
/// in-memory probe instead: one oversized build beats max_recursion_depth
/// wasted passes over the same bytes.
Status JoinSpilledPair(const Relation& r_rows, const Relation& s_rows,
                       const JoinSpec& spec, ExecContext* ctx,
                       JoinRunStats* stats, int depth, Relation* out) {
  const Schema& rs = r_rows.schema();
  const Schema& ss = s_rows.schema();
  const int64_t capacity =
      std::max<int64_t>(1, ctx->TuplesInPages(rs, ctx->memory_pages));
  const Field rkey = Field::Of(rs, spec.left_column);
  const int64_t n = r_rows.num_tuples();
  bool resolve_in_memory = n <= capacity || depth >= ctx->max_recursion_depth;
  if (!resolve_in_memory) {
    const char* k0 = r_rows.record(0);
    bool single_key = true;
    for (int64_t i = 1; i < n; ++i) {
      ctx->clock->Comp();
      if (CompareFields(rkey, r_rows.record(i), rkey, k0) != 0) {
        single_key = false;
        break;
      }
    }
    if (single_key) {
      resolve_in_memory = true;
      if (stats != nullptr) ++stats->forced_probes;
    }
  }
  if (resolve_in_memory) {
    exec_internal::BuildAndProbe(r_rows, spec.left_column, ss,
                                 spec.right_column,
                                 exec_internal::RecordsOf(s_rows), ctx, out);
    return Status::OK();
  }
  // Recursive application with a fresh hash function (level = depth + 1).
  JoinRunStats child_stats;
  MMDB_ASSIGN_OR_RETURN(Relation child,
                        HybridHashJoinImpl(r_rows, s_rows, spec, ctx,
                                           &child_stats, depth + 1));
  if (stats != nullptr) {
    stats->recursion_depth =
        std::max(stats->recursion_depth, child_stats.recursion_depth);
    stats->forced_probes += child_stats.forced_probes;
    stats->migrations += child_stats.migrations;
  }
  for (int64_t i = 0; i < child.num_tuples(); ++i) out->Append(child.record(i));
  return Status::OK();
}

/// Hybrid hash join with dynamic partition migration (Jahangiri & Carey,
/// *Design Trade-offs for a Robust Dynamic Hybrid Hash Join*): instead of
/// carving a fixed resident fraction q up front (and shaving it by 4 sigma
/// so hash noise would not overflow it), split R uniformly into P
/// partitions and decide *per partition, during the build* which ones stay
/// memory-resident. Whenever the buffered build exceeds the memory grant,
/// the largest resident partition is destaged (its buffered tuples move to
/// its spill file — the "migration"); everything that hashes there later
/// goes straight to disk. Skew or a bad size estimate therefore costs
/// exactly the partitions that truly do not fit, never the static split's
/// save-everything fallback.
///
/// The destaging schedule is *replayed* from R's partition ids (a pure
/// function of the input) before any tuple moves, so each R tuple is then
/// either inserted into the resident table or appended to its partition's
/// spill file once, in input order; migrated tuples charge one extra Move
/// each (the rewrite from the hash table to the output buffer). S tuples
/// of resident partitions probe immediately, the rest spill, and phase 2
/// joins the spilled pairs in partition order.
StatusOr<Relation> HybridHashJoinImpl(const Relation& r, const Relation& s,
                                      const JoinSpec& spec, ExecContext* ctx,
                                      JoinRunStats* stats, int depth) {
  const Schema& rs = r.schema();
  const Schema& ss = s.schema();
  Relation out(Schema::Concat(rs, ss));
  if (stats != nullptr) stats->recursion_depth = depth;

  const int64_t r_pages = std::max<int64_t>(1, r.NumPages(ctx->page_size()));
  const HybridSplit split =
      SolveHybridSplit(r_pages, ctx->memory_pages, ctx->fudge);
  const int64_t P = split.q >= 1.0 ? 1 : split.num_partitions + 1;
  HashPartitioner partitioner(P, static_cast<uint32_t>(depth));

  // ---- Phase 1a: partition ids for R (the partitioning hash).
  const Field rkey = Field::Of(rs, spec.left_column);
  const Field skey = Field::Of(ss, spec.right_column);
  std::vector<int32_t> r_pids;
  r_pids.reserve(static_cast<size_t>(r.num_tuples()));
  for (int64_t i = 0; i < r.num_tuples(); ++i) {
    r_pids.push_back(static_cast<int32_t>(
        partitioner.PartitionOf(rkey.Hash(r.record(i)))));
  }
  ctx->clock->Hash(static_cast<int64_t>(r_pids.size()));

  // ---- Destaging schedule: replay R's arrival order, evicting the
  // largest resident partition whenever the buffered build would exceed
  // the grant. Each spilled partition claims one output-buffer page, so
  // the build's share shrinks as partitions destage.
  std::vector<char> spilled(static_cast<size_t>(P), 0);
  std::vector<int64_t> buffered(static_cast<size_t>(P), 0);
  int64_t resident_rows = 0;
  int64_t spilled_count = 0;
  int64_t migrated_rows = 0;  // buffered tuples rewritten on eviction
  int64_t migrations = 0;     // evictions that had buffered tuples
  auto capacity_now = [&]() {
    return std::max<int64_t>(
        1, ctx->TuplesInPages(
               rs, std::max<int64_t>(1, ctx->memory_pages - spilled_count)));
  };
  for (int32_t pid : r_pids) {
    const size_t p = static_cast<size_t>(pid);
    if (spilled[p]) continue;
    ++buffered[p];
    ++resident_rows;
    while (resident_rows > capacity_now() && P > 1 &&
           spilled_count < P) {
      // Evict the largest buffered partition (ties -> lowest id). Evicting
      // an empty partition frees nothing, so stop once only empties remain.
      size_t victim = 0;
      int64_t victim_rows = -1;
      for (size_t cand = 0; cand < spilled.size(); ++cand) {
        if (!spilled[cand] && buffered[cand] > victim_rows) {
          victim = cand;
          victim_rows = buffered[cand];
        }
      }
      if (victim_rows <= 0) break;
      spilled[victim] = 1;
      ++spilled_count;
      ++migrations;
      migrated_rows += buffered[victim];
      resident_rows -= buffered[victim];
      buffered[victim] = 0;
    }
  }
  if (stats != nullptr) {
    stats->partitions = spilled_count;
    stats->migrations += migrations;
    stats->q = r_pids.empty()
                   ? 1.0
                   : double(resident_rows) / double(r_pids.size());
  }

  // ---- Phase 1b over R: resident partitions build the hash table, the
  // destaged ones spill. Migrated tuples sat in the hash table before
  // their partition destaged: charge the rewrite.
  const IoKind spill_kind =
      spilled_count <= 1 ? IoKind::kSequential : IoKind::kRandom;
  std::unique_ptr<PartitionWriterSet> r_spill;
  std::unique_ptr<PartitionWriterSet> s_spill;
  if (spilled_count > 0) {
    ctx->clock->Move(migrated_rows);
    r_spill = std::make_unique<PartitionWriterSet>(ctx, rs, P, spill_kind,
                                                   "hybrid_r");
    s_spill = std::make_unique<PartitionWriterSet>(ctx, ss, P, spill_kind,
                                                   "hybrid_s");
  }
  JoinHashTable resident(rs, spec.left_column);
  for (size_t i = 0; i < r_pids.size(); ++i) {
    const char* rec = r.record(static_cast<int64_t>(i));
    if (spilled[static_cast<size_t>(r_pids[i])]) {
      MMDB_RETURN_IF_ERROR(r_spill->Append(r_pids[i], rec));
    } else {
      ctx->clock->Move();
      resident.Insert(rec);
    }
  }
  if (r_spill != nullptr) MMDB_RETURN_IF_ERROR(r_spill->FinishAll());

  // ---- Phase 1c over S: resident partitions probe immediately, the rest
  // spills.
  for (int64_t i = 0; i < s.num_tuples(); ++i) {
    const char* s_rec = s.record(i);
    ctx->clock->Hash();
    const int64_t p = partitioner.PartitionOf(skey.Hash(s_rec));
    if (spilled[static_cast<size_t>(p)]) {
      MMDB_RETURN_IF_ERROR(s_spill->Append(p, s_rec));
    } else {
      ctx->clock->Comp(resident.Match(skey, s_rec, [&](const char* r_rec) {
        exec_internal::EmitJoined(r_rec, rs.record_size(), s_rec, &out);
      }));
    }
  }
  if (spilled_count == 0) {
    if (stats != nullptr) stats->output_tuples = out.num_tuples();
    return out;
  }
  MMDB_RETURN_IF_ERROR(s_spill->FinishAll());

  // ---- Phase 2: the spilled pairs, in partition order.
  const auto r_parts = r_spill->Release();
  const auto s_parts = s_spill->Release();
  for (int64_t i = 0; i < P; ++i) {
    const auto& rp = r_parts[static_cast<size_t>(i)];
    const auto& sp = s_parts[static_cast<size_t>(i)];
    if (rp.records == 0 || sp.records == 0) {
      ctx->disk->DeleteFile(rp.file);
      ctx->disk->DeleteFile(sp.file);
      continue;
    }
    MMDB_ASSIGN_OR_RETURN(Relation r_rows, ReadAndDeletePartition(ctx, rs, rp));
    MMDB_ASSIGN_OR_RETURN(Relation s_rows, ReadAndDeletePartition(ctx, ss, sp));
    MMDB_RETURN_IF_ERROR(
        JoinSpilledPair(r_rows, s_rows, spec, ctx, stats, depth, &out));
  }
  if (stats != nullptr) stats->output_tuples = out.num_tuples();
  return out;
}

}  // namespace

StatusOr<Relation> HybridHashJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx,
                                  JoinRunStats* stats) {
  return HybridHashJoinImpl(r, s, spec, ctx, stats, 0);
}

}  // namespace mmdb
