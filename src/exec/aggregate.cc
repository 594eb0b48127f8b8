#include "exec/aggregate.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "exec/parallel.h"
#include "exec/partitioner.h"
#include "storage/heap_file.h"

namespace mmdb {

namespace {

/// Running state of one aggregate over one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  Value min_v;
  Value max_v;
  bool seen = false;

  void Update(const Value& v) {
    ++count;
    if (std::holds_alternative<int64_t>(v)) {
      sum += double(std::get<int64_t>(v));
    } else if (std::holds_alternative<double>(v)) {
      sum += std::get<double>(v);
    }
    if (!seen) {
      min_v = v;
      max_v = v;
      seen = true;
    } else {
      if (CompareValues(v, min_v) < 0) min_v = v;
      if (CompareValues(v, max_v) > 0) max_v = v;
    }
  }

  /// Folds another partial state in (the parallel merge step). COUNT, MIN
  /// and MAX are exactly order-independent; SUM/AVG re-associate the float
  /// additions, which is exact whenever the summed values are integers
  /// below 2^53 (DESIGN.md §8).
  void Merge(const AggState& o) {
    count += o.count;
    sum += o.sum;
    if (o.seen) {
      if (!seen) {
        min_v = o.min_v;
        max_v = o.max_v;
        seen = true;
      } else {
        if (CompareValues(o.min_v, min_v) < 0) min_v = o.min_v;
        if (CompareValues(o.max_v, max_v) > 0) max_v = o.max_v;
      }
    }
  }
};

struct GroupState {
  Row key;
  std::vector<AggState> aggs;
};

uint64_t HashGroupKey(const Row& row, const std::vector<int>& cols) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int c : cols) {
    h = HashCombine(h, HashValue(row[static_cast<size_t>(c)]));
  }
  return h;
}

bool GroupKeyEquals(const Row& row, const std::vector<int>& cols,
                    const Row& key) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (!ValuesEqual(row[static_cast<size_t>(cols[i])], key[i])) return false;
  }
  return true;
}

/// Equality of two already-projected group-key rows (the parallel merge).
bool KeyRowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesEqual(a[i], b[i])) return false;
  }
  return true;
}

/// Result schema of an aggregation: the group-by columns followed by one
/// column per aggregate (COUNT -> INT64, SUM/AVG -> DOUBLE, MIN/MAX -> the
/// input column's type).
Schema AggregateOutputSchema(const Schema& in, const AggregateSpec& spec) {
  std::vector<Column> cols;
  for (int c : spec.group_by) {
    cols.push_back(in.column(c));
  }
  for (const auto& agg : spec.aggregates) {
    std::string name = agg.name;
    if (name.empty()) {
      name = "agg" + std::to_string(cols.size());
    }
    switch (agg.fn) {
      case AggFn::kCount:
        cols.push_back(Column::Int64(name));
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        cols.push_back(Column::Double(name));
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        Column c = in.column(agg.column);
        c.name = name;
        cols.push_back(c);
        break;
      }
    }
  }
  return Schema(std::move(cols));
}

/// Validates `spec` against `input_schema`: column ranges, SUM/AVG not on
/// strings.
Status ValidateAggregateSpec(const Schema& input_schema,
                             const AggregateSpec& spec) {
  for (int c : spec.group_by) {
    if (c < 0 || c >= input_schema.num_columns()) {
      return Status::InvalidArgument("bad group-by column");
    }
  }
  for (const auto& a : spec.aggregates) {
    if (a.fn != AggFn::kCount &&
        (a.column < 0 || a.column >= input_schema.num_columns())) {
      return Status::InvalidArgument("bad aggregate column");
    }
    if (a.fn == AggFn::kSum || a.fn == AggFn::kAvg) {
      ValueType t = input_schema.column(a.column).type;
      if (t == ValueType::kString) {
        return Status::InvalidArgument("SUM/AVG on string column");
      }
    }
  }
  return Status::OK();
}

void EmitGroup(const GroupState& g, const AggregateSpec& spec,
               Relation* out) {
  Row row = g.key;
  for (size_t i = 0; i < spec.aggregates.size(); ++i) {
    const AggState& st = g.aggs[i];
    switch (spec.aggregates[i].fn) {
      case AggFn::kCount:
        row.emplace_back(st.count);
        break;
      case AggFn::kSum:
        row.emplace_back(st.sum);
        break;
      case AggFn::kAvg:
        row.emplace_back(st.count == 0 ? 0.0 : st.sum / double(st.count));
        break;
      case AggFn::kMin:
        row.push_back(st.min_v);
        break;
      case AggFn::kMax:
        row.push_back(st.max_v);
        break;
    }
  }
  out->Add(std::move(row));
}

/// One-pass hash aggregation of `n` rows into `out`; `row_at(i)` yields
/// row i, whose columns `spec` indexes. Reading through the accessor lets
/// a row-reference view aggregate its source rows in place.
template <typename RowAt>
void AggregateInMemory(int64_t n, const RowAt& row_at,
                       const AggregateSpec& spec, ExecContext* ctx,
                       Relation* out, int64_t* num_groups) {
  std::unordered_map<uint64_t, std::vector<GroupState>> table;
  for (int64_t r = 0; r < n; ++r) {
    const Row& row = row_at(r);
    ctx->clock->Hash();
    const uint64_t h = HashGroupKey(row, spec.group_by);
    std::vector<GroupState>& bucket = table[h];
    GroupState* group = nullptr;
    for (GroupState& g : bucket) {
      ctx->clock->Comp();
      if (GroupKeyEquals(row, spec.group_by, g.key)) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      ctx->clock->Move();
      GroupState g;
      g.key.reserve(spec.group_by.size());
      for (int c : spec.group_by) {
        g.key.push_back(row[static_cast<size_t>(c)]);
      }
      g.aggs.resize(spec.aggregates.size());
      bucket.push_back(std::move(g));
      group = &bucket.back();
    }
    for (size_t i = 0; i < spec.aggregates.size(); ++i) {
      const auto& agg = spec.aggregates[i];
      const Value& v = agg.fn == AggFn::kCount
                           ? row[0]
                           : row[static_cast<size_t>(agg.column)];
      group->aggs[i].Update(v);
    }
  }
  for (auto& [h, bucket] : table) {
    for (const GroupState& g : bucket) {
      EmitGroup(g, spec, out);
      ++*num_groups;
    }
  }
}

/// The serial aggregation at recursion `depth`. `rows` is only read: at
/// depth 0 it is the caller's input, used in place. Deeper levels own the
/// partition they read back from a spill file and pass it as `owned`
/// (== &rows), which is released once it has been re-partitioned, so a
/// recursion holds one level's rows at a time.
Status AggregateRec(const std::vector<Row>& rows, std::vector<Row>* owned,
                    const Schema& in_schema, const AggregateSpec& spec,
                    ExecContext* ctx, int depth, Relation* out,
                    AggStats* stats) {
  const int64_t capacity =
      std::max<int64_t>(1, ctx->TuplesInPages(in_schema, ctx->memory_pages));
  const int64_t n = static_cast<int64_t>(rows.size());
  if (n <= capacity || depth >= 4) {
    int64_t groups = 0;
    AggregateInMemory(
        n, [&rows](int64_t i) -> const Row& {
          return rows[static_cast<size_t>(i)];
        },
        spec, ctx, out, &groups);
    if (stats != nullptr) stats->groups += groups;
    return Status::OK();
  }
  // Partition on the grouping hash; groups cannot straddle partitions.
  const int64_t b = std::max<int64_t>(
      2, std::min<int64_t>(ctx->memory_pages, (n + capacity - 1) / capacity));
  if (stats != nullptr && depth == 0) stats->partitions = b;
  PartitionWriterSet writers(ctx, in_schema, b,
                             b <= 1 ? IoKind::kSequential : IoKind::kRandom,
                             "agg_part");
  HashPartitioner partitioner(b, static_cast<uint32_t>(depth + 17));
  for (const Row& row : rows) {
    ctx->clock->Hash();
    // Partition on the combined group key hash.
    const uint64_t h = HashGroupKey(row, spec.group_by);
    const int64_t p =
        static_cast<int64_t>(Mix64(h ^ (0xABCDull * (depth + 1))) %
                             static_cast<uint64_t>(b));
    MMDB_RETURN_IF_ERROR(writers.Append(p, row));
  }
  if (owned != nullptr) {
    owned->clear();
    owned->shrink_to_fit();
  }
  MMDB_RETURN_IF_ERROR(writers.FinishAll());
  for (const auto& pf : writers.Release()) {
    if (pf.records == 0) {
      ctx->disk->DeleteFile(pf.file);
      continue;
    }
    MMDB_ASSIGN_OR_RETURN(std::vector<Row> part,
                          ReadAndDeletePartition(ctx, in_schema, pf));
    MMDB_RETURN_IF_ERROR(AggregateRec(part, &part, in_schema, spec, ctx,
                                      depth + 1, out, stats));
  }
  return Status::OK();
}

using GroupTable = std::unordered_map<uint64_t, std::vector<GroupState>>;

/// DOP > 1 one-pass aggregation: each worker folds its morsels into a
/// private table, then the local tables merge into one global table.
///
/// Charging convention (DESIGN.md §8) — chosen so the totals are the SAME
/// as a serial AggregateInMemory at any DOP and any morsel→worker
/// assignment (modulo 64-bit group-hash collisions):
///  * local insert of row: Hash, plus one Comp per local group scanned; a
///    NEW local group charges no Move (it is only a partial);
///  * merging one local group: one Comp per global group scanned, plus one
///    Move if the group is new globally.
/// With W workers seeing n_w rows and g_w local groups of g total groups,
/// comps = sum(n_w - g_w) + (sum(g_w) - g) = n - g, moves = g, hashes = n —
/// exactly the serial tallies, with every g_w cancelled out.
Status ParallelAggregateFit(const std::vector<Row>& rows,
                            const AggregateSpec& spec, ExecContext* ctx,
                            Relation* out, int64_t* num_groups) {
  const std::vector<IndexRange> morsels =
      MorselRanges(static_cast<int64_t>(rows.size()));
  const int workers =
      std::max(1, PlannedWorkers(ctx, static_cast<int64_t>(morsels.size())));
  std::vector<GroupTable> locals(static_cast<size_t>(workers));
  MMDB_RETURN_IF_ERROR(ParallelFor(
      ctx, static_cast<int64_t>(morsels.size()),
      [&](ExecContext* wctx, int worker, int64_t m) {
        GroupTable& table = locals[static_cast<size_t>(worker)];
        const IndexRange range = morsels[static_cast<size_t>(m)];
        for (int64_t i = range.begin; i < range.end; ++i) {
          const Row& row = rows[static_cast<size_t>(i)];
          wctx->clock->Hash();
          const uint64_t h = HashGroupKey(row, spec.group_by);
          std::vector<GroupState>& bucket = table[h];
          GroupState* group = nullptr;
          for (GroupState& g : bucket) {
            wctx->clock->Comp();
            if (GroupKeyEquals(row, spec.group_by, g.key)) {
              group = &g;
              break;
            }
          }
          if (group == nullptr) {
            GroupState g;
            g.key.reserve(spec.group_by.size());
            for (int c : spec.group_by) {
              g.key.push_back(row[static_cast<size_t>(c)]);
            }
            g.aggs.resize(spec.aggregates.size());
            bucket.push_back(std::move(g));
            group = &bucket.back();
          }
          for (size_t a = 0; a < spec.aggregates.size(); ++a) {
            const auto& agg = spec.aggregates[a];
            const Value& v = agg.fn == AggFn::kCount
                                 ? row[0]
                                 : row[static_cast<size_t>(agg.column)];
            group->aggs[a].Update(v);
          }
        }
        return Status::OK();
      }));

  GroupTable global;
  for (GroupTable& local : locals) {
    for (auto& [h, bucket] : local) {
      for (GroupState& lg : bucket) {
        std::vector<GroupState>& gbucket = global[h];
        GroupState* found = nullptr;
        for (GroupState& g : gbucket) {
          ctx->clock->Comp();
          if (KeyRowsEqual(lg.key, g.key)) {
            found = &g;
            break;
          }
        }
        if (found == nullptr) {
          ctx->clock->Move();
          gbucket.push_back(std::move(lg));
        } else {
          for (size_t a = 0; a < found->aggs.size(); ++a) {
            found->aggs[a].Merge(lg.aggs[a]);
          }
        }
      }
    }
  }
  for (auto& [h, bucket] : global) {
    for (const GroupState& g : bucket) {
      EmitGroup(g, spec, out);
      ++*num_groups;
    }
  }
  return Status::OK();
}

/// DOP > 1 partitioned aggregation (depth 0 of the serial recursion):
/// morsel-parallel partitioning hash, one spill task per partition (files
/// byte-identical to serial), then one task per partition running the
/// serial AggregateRec at depth 1. Per-partition outputs concatenate in
/// partition order — the serial emission order.
Status ParallelAggregatePartition(const std::vector<Row>& rows,
                                  const Schema& in_schema,
                                  const AggregateSpec& spec, ExecContext* ctx,
                                  Relation* out, AggStats* stats) {
  const int64_t capacity =
      std::max<int64_t>(1, ctx->TuplesInPages(in_schema, ctx->memory_pages));
  const int64_t b = std::max<int64_t>(
      2, std::min<int64_t>(
             ctx->memory_pages,
             (static_cast<int64_t>(rows.size()) + capacity - 1) / capacity));
  if (stats != nullptr) stats->partitions = b;
  PartitionWriterSet writers(ctx, in_schema, b,
                             b <= 1 ? IoKind::kSequential : IoKind::kRandom,
                             "agg_part");
  std::vector<int32_t> pids;
  MMDB_RETURN_IF_ERROR(ComputePartitionIds(
      ctx, rows,
      [&](const Row& row) {
        const uint64_t h = HashGroupKey(row, spec.group_by);
        return static_cast<int64_t>(Mix64(h ^ (0xABCDull * 1)) %
                                    static_cast<uint64_t>(b));
      },
      &pids));
  const std::vector<std::vector<int64_t>> groups =
      GroupIndicesByPartition(pids, b);
  MMDB_RETURN_IF_ERROR(ParallelDistribute(ctx, rows, groups, 0, &writers));
  MMDB_RETURN_IF_ERROR(writers.FinishAll());

  const auto parts = writers.Release();
  std::vector<Relation> partial(static_cast<size_t>(b),
                                Relation(out->schema()));
  std::vector<int64_t> part_groups(static_cast<size_t>(b), 0);
  MMDB_RETURN_IF_ERROR(ParallelFor(
      ctx, b, [&](ExecContext* wctx, int, int64_t i) {
        const auto& pf = parts[static_cast<size_t>(i)];
        if (pf.records == 0) {
          wctx->disk->DeleteFile(pf.file);
          return Status::OK();
        }
        MMDB_ASSIGN_OR_RETURN(std::vector<Row> part,
                              ReadAndDeletePartition(wctx, in_schema, pf));
        AggStats local_stats;
        MMDB_RETURN_IF_ERROR(AggregateRec(part, &part, in_schema, spec, wctx,
                                          1, &partial[static_cast<size_t>(i)],
                                          &local_stats));
        part_groups[static_cast<size_t>(i)] = local_stats.groups;
        return Status::OK();
      }));
  for (size_t i = 0; i < partial.size(); ++i) {
    for (Row& row : partial[i].mutable_rows()) {
      out->Add(std::move(row));
    }
    if (stats != nullptr) stats->groups += part_groups[i];
  }
  return Status::OK();
}

/// Publishes one top-level aggregation's exec.agg.* counters (AggregateRec
/// recurses on overflow partitions internally, so only the entries count)
/// and fills in its own cost-clock delta.
void FinishAggregateRun(ExecContext* ctx, int64_t input_tuples,
                        double seconds_before, AggStats* st) {
  st->cost_seconds = ctx->clock->Seconds() - seconds_before;
  if (ctx->metrics == nullptr) return;
  MetricsRegistry* m = ctx->metrics;
  m->Add("exec.agg.runs", 1);
  m->Add("exec.agg.input_tuples", input_tuples);
  m->Add("exec.agg.groups", st->groups);
  m->Add("exec.agg.one_pass_runs", st->one_pass ? 1 : 0);
  m->Add("exec.agg.spilled_partitions", st->partitions);
  m->Record("exec.agg.group_count", st->groups);
}

}  // namespace

StatusOr<Relation> HashAggregate(const Relation& input,
                                 const AggregateSpec& spec, ExecContext* ctx,
                                 AggStats* stats) {
  return AggregateView(RowView(&input), spec, ctx, stats);
}

StatusOr<Relation> AggregateView(const RowView& input,
                                 const AggregateSpec& spec, ExecContext* ctx,
                                 AggStats* stats) {
  MMDB_RETURN_IF_ERROR(ValidateAggregateSpec(input.schema(), spec));
  const int64_t capacity = std::max<int64_t>(
      1, ctx->TuplesInPages(input.schema(), ctx->memory_pages));
  const bool one_pass = input.size() <= capacity;
  // A partitioned or parallel run reads row-major rows: the view's source
  // when the view is all of it, else a copy, taken before the run starts.
  Relation copy;
  if ((!one_pass || ctx->dop > 1) && !input.identity()) {
    copy = input.Materialize();
  }
  const Relation& rows = input.identity() ? *input.source() : copy;
  Relation out(AggregateOutputSchema(input.schema(), spec));
  AggStats local;
  AggStats* st = stats != nullptr ? stats : &local;
  *st = AggStats{};
  st->one_pass = one_pass;
  const double seconds_before = ctx->clock->Seconds();
  if (ctx->dop > 1) {
    if (one_pass) {
      MMDB_RETURN_IF_ERROR(
          ParallelAggregateFit(rows.rows(), spec, ctx, &out, &st->groups));
    } else {
      MMDB_RETURN_IF_ERROR(ParallelAggregatePartition(
          rows.rows(), rows.schema(), spec, ctx, &out, st));
    }
  } else if (one_pass) {
    // Grouped in place: the spec's columns translated to source columns.
    AggregateSpec source_spec = spec;
    for (int& c : source_spec.group_by) {
      c = static_cast<int>(input.source_column(c));
    }
    for (AggregateSpec::Aggregate& a : source_spec.aggregates) {
      if (a.fn != AggFn::kCount) {
        a.column = static_cast<int>(input.source_column(a.column));
      }
    }
    AggregateInMemory(
        input.size(),
        [&input](int64_t i) -> const Row& { return input.row(i); },
        source_spec, ctx, &out, &st->groups);
  } else {
    MMDB_RETURN_IF_ERROR(AggregateRec(rows.rows(), nullptr, rows.schema(),
                                      spec, ctx, 0, &out, st));
  }
  FinishAggregateRun(ctx, input.size(), seconds_before, st);
  return out;
}

StatusOr<Relation> ProjectDistinct(const Relation& input,
                                   const std::vector<int>& columns,
                                   ExecContext* ctx, AggStats* stats) {
  AggregateSpec spec;
  spec.group_by = columns;
  return HashAggregate(input, spec, ctx, stats);
}

}  // namespace mmdb
