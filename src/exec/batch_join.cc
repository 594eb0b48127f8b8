#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "cost/join_cost.h"
#include "exec/batch.h"

namespace mmdb {

namespace {

using exec_internal::JoinHashTable;

/// HashValue for one key slot of a row-major tuple with the column type
/// hoisted out of the loop — bit-identical to HashValue(Value).
inline uint64_t TypedKeyHash(const Row& row, size_t col, ValueType type) {
  const Value& v = row[col];
  switch (type) {
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(std::get<int64_t>(v)));
    case ValueType::kDouble: {
      double d = std::get<double>(v);
      if (d == 0.0) d = 0.0;  // normalize -0.0, like HashValue
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case ValueType::kString:
      return HashString(std::get<std::string>(v));
  }
  return 0;
}

inline bool TypedKeyEquals(const Row& a, size_t ca, const Row& b, size_t cb,
                           ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return std::get<int64_t>(a[ca]) == std::get<int64_t>(b[cb]);
    case ValueType::kDouble:
      return std::get<double>(a[ca]) == std::get<double>(b[cb]);
    case ValueType::kString:
      return std::get<std::string>(a[ca]) == std::get<std::string>(b[cb]);
  }
  return false;
}

StatusOr<Relation> VectorHashJoinImpl(const Relation& r, const Relation& s,
                                      const JoinSpec& spec, ExecContext* ctx,
                                      JoinRunStats* stats) {
  const Schema& rs = r.schema();
  const int64_t r_pages = std::max<int64_t>(1, r.NumPages(ctx->page_size()));
  const HybridSplit split =
      SolveHybridSplit(r_pages, ctx->memory_pages, ctx->fudge);
  if (split.q < 1.0 || ctx->dop > 1) {
    // Spilling build or parallel run: the row-major hybrid handles it;
    // parity with the tuple plan path holds by definition.
    return HybridHashJoin(r, s, spec, ctx, stats);
  }

  // In-memory case, charge-identical to the hybrid's single-partition
  // path: one Hash and one Move per build tuple, then the shared probe.
  JoinHashTable table(spec.left_column, ctx->clock);
  ctx->clock->Hash(r.num_tuples());
  ctx->clock->Move(r.num_tuples());
  for (const Row& row : r.rows()) {
    table.Insert(row);
  }
  Relation out = exec_internal::ProbeHashTable(
      table, rs, RowView(&s), spec.right_column, /*vector=*/true, ctx);
  if (stats != nullptr) {
    stats->output_tuples = out.num_tuples();
    stats->q = 1.0;
    stats->partitions = 0;
  }
  return out;
}

/// Emits build row ++ probe view row `i` into `out`.
void EmitJoinedView(const Row& r_row, const RowView& probe, int64_t i,
                    Relation* out) {
  const Row& s_row = probe.row(i);
  if (probe.identity()) {
    exec_internal::EmitJoined(r_row, s_row, out);
    return;
  }
  const int ncols = probe.schema().num_columns();
  Row row;
  row.reserve(r_row.size() + static_cast<size_t>(ncols));
  row.insert(row.end(), r_row.begin(), r_row.end());
  for (int c = 0; c < ncols; ++c) row.push_back(s_row[probe.source_column(c)]);
  out->Add(std::move(row));
}

}  // namespace

namespace exec_internal {

Relation ProbeHashTable(const JoinHashTable& table, const Schema& build_schema,
                        const RowView& probe, int probe_key, bool vector,
                        ExecContext* ctx) {
  Relation out(Schema::Concat(build_schema, probe.schema()));
  const size_t key = probe.source_column(probe_key);
  const size_t build_key = static_cast<size_t>(table.key_column());
  const int64_t n = probe.size();
  ctx->clock->Hash(n);
  if (!vector) {
    for (int64_t i = 0; i < n; ++i) {
      table.ProbeWith(ctx->clock, probe.row(i)[key], [&](const Row& r_row) {
        EmitJoinedView(r_row, probe, i, &out);
      });
    }
    return out;
  }
  // Probe in key-hash batches: hashes for a run of kBatchRows probe keys
  // compute in one tight pass, then the bucket walks run back to back.
  const ValueType key_type = probe.schema().column(probe_key).type;
  int64_t comps = 0;
  std::vector<uint64_t> hashes;
  for (int64_t base = 0; base < n; base += kBatchRows) {
    const int64_t take = std::min(kBatchRows, n - base);
    hashes.resize(static_cast<size_t>(take));
    for (int64_t k = 0; k < take; ++k) {
      hashes[static_cast<size_t>(k)] =
          TypedKeyHash(probe.row(base + k), key, key_type);
    }
    for (int64_t k = 0; k < take; ++k) {
      const Value& s_key = probe.row(base + k)[key];
      const std::vector<Row>* bucket =
          table.FindBucket(hashes[static_cast<size_t>(k)]);
      if (bucket == nullptr) {
        ++comps;  // the miss still compares
        continue;
      }
      for (const Row& r_row : *bucket) {
        ++comps;
        if (ValuesEqual(r_row[build_key], s_key)) {
          EmitJoinedView(r_row, probe, base + k, &out);
        }
      }
    }
  }
  ctx->clock->Comp(comps);
  return out;
}

}  // namespace exec_internal

StatusOr<Relation> VectorHashJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx,
                                  JoinRunStats* stats) {
  JoinRunStats local;
  JoinRunStats* st = stats != nullptr ? stats : &local;
  *st = JoinRunStats{};
  const auto t0 = exec_internal::JoinStart(ctx);
  StatusOr<Relation> out = VectorHashJoinImpl(r, s, spec, ctx, st);
  // The same one-shot publication as ExecuteJoin, so the vector plan path
  // reports the same counters as the tuple plan path.
  if (out.ok()) {
    exec_internal::PublishJoinRun(ctx, r.num_tuples(), s.num_tuples(), *st,
                                  t0);
  }
  return out;
}

StatusOr<Relation> RadixHashJoin(const Relation& r, const Relation& s,
                                 const JoinSpec& spec, ExecContext* ctx,
                                 JoinRunStats* stats, int64_t l2_bytes) {
  const Schema& rs = r.schema();
  const Schema& ss = s.schema();
  Relation out(Schema::Concat(rs, ss));

  // Enough partitions that one build partition's table (tuples + the F
  // overhead of the hash structure) fits half of L2 — the other half is
  // left for the probe stream and the output.
  const int64_t build_bytes = static_cast<int64_t>(
      double(r.num_tuples()) * double(rs.record_size()) * ctx->fudge);
  int64_t parts = 1;
  while (parts < 4096 && build_bytes / parts > std::max<int64_t>(1, l2_bytes / 2)) {
    parts <<= 1;
  }
  const uint64_t mask = static_cast<uint64_t>(parts - 1);
  const int shift = 64 - __builtin_ctzll(static_cast<uint64_t>(parts) == 1
                                             ? 2
                                             : static_cast<uint64_t>(parts));

  const size_t r_key = static_cast<size_t>(spec.left_column);
  const size_t s_key = static_cast<size_t>(spec.right_column);
  const ValueType r_type = rs.column(spec.left_column).type;
  const ValueType s_type = ss.column(spec.right_column).type;

  // One Hash per tuple, computed once and reused for partitioning AND the
  // per-partition table (the paper's shared-hash convention).
  ctx->clock->Hash(r.num_tuples() + s.num_tuples());
  std::vector<uint64_t> r_hash(static_cast<size_t>(r.num_tuples()));
  std::vector<uint64_t> s_hash(static_cast<size_t>(s.num_tuples()));
  std::vector<std::vector<int64_t>> r_part(static_cast<size_t>(parts));
  std::vector<std::vector<int64_t>> s_part(static_cast<size_t>(parts));
  for (int64_t i = 0; i < r.num_tuples(); ++i) {
    const uint64_t h =
        TypedKeyHash(r.rows()[static_cast<size_t>(i)], r_key, r_type);
    r_hash[static_cast<size_t>(i)] = h;
    r_part[static_cast<size_t>(parts == 1 ? 0 : (h >> shift) & mask)]
        .push_back(i);
  }
  for (int64_t i = 0; i < s.num_tuples(); ++i) {
    const uint64_t h =
        TypedKeyHash(s.rows()[static_cast<size_t>(i)], s_key, s_type);
    s_hash[static_cast<size_t>(i)] = h;
    s_part[static_cast<size_t>(parts == 1 ? 0 : (h >> shift) & mask)]
        .push_back(i);
  }

  // Build + probe each partition while it is cache-resident.
  int64_t comps = 0;
  int64_t moves = 0;
  std::unordered_map<uint64_t, std::vector<int64_t>> buckets;
  for (int64_t p = 0; p < parts; ++p) {
    const std::vector<int64_t>& rp = r_part[static_cast<size_t>(p)];
    const std::vector<int64_t>& sp = s_part[static_cast<size_t>(p)];
    if (rp.empty() || sp.empty()) continue;
    buckets.clear();
    for (int64_t i : rp) {
      ++moves;
      buckets[r_hash[static_cast<size_t>(i)]].push_back(i);
    }
    for (int64_t i : sp) {
      const Row& s_row = s.rows()[static_cast<size_t>(i)];
      auto it = buckets.find(s_hash[static_cast<size_t>(i)]);
      if (it == buckets.end()) {
        ++comps;
        continue;
      }
      for (int64_t ri : it->second) {
        ++comps;
        const Row& r_row = r.rows()[static_cast<size_t>(ri)];
        if (TypedKeyEquals(r_row, r_key, s_row, s_key, r_type)) {
          out.Add(ConcatRows(r_row, s_row));
        }
      }
    }
  }
  ctx->clock->Comp(comps);
  ctx->clock->Move(moves);
  if (stats != nullptr) {
    *stats = JoinRunStats{};
    stats->output_tuples = out.num_tuples();
    stats->partitions = parts;
  }
  return out;
}

}  // namespace mmdb
