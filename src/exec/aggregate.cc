#include "exec/aggregate.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "common/hash_directory.h"
#include "exec/parallel.h"
#include "exec/partitioner.h"
#include "storage/heap_file.h"

namespace mmdb {

namespace {

/// Running state of one aggregate over one group, kept only as its AggFn
/// needs: COUNT and AVG count rows, SUM and AVG add, MIN and MAX keep the
/// extreme value.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  Value extreme;
  bool seen = false;

  void Update(AggFn fn, const Row& row, int column) {
    if (fn == AggFn::kCount) {
      ++count;
      return;
    }
    const Value& v = row[static_cast<size_t>(column)];
    switch (fn) {
      case AggFn::kAvg:
        ++count;
        [[fallthrough]];
      case AggFn::kSum:
        if (const int64_t* i = std::get_if<int64_t>(&v)) {
          sum += double(*i);
        } else if (const double* d = std::get_if<double>(&v)) {
          sum += *d;
        }
        return;
      case AggFn::kMin:
      case AggFn::kMax:
        Extend(fn, v);
        return;
      case AggFn::kCount:
        return;
    }
  }

  /// Folds another partial state in (the parallel merge step). COUNT, MIN
  /// and MAX are exactly order-independent; SUM/AVG re-associate the float
  /// additions, which is exact whenever the summed values are integers
  /// below 2^53 (DESIGN.md §8).
  void Merge(AggFn fn, const AggState& o) {
    count += o.count;
    sum += o.sum;
    if (o.seen) Extend(fn, o.extreme);
  }

 private:
  /// MIN or MAX over one more value.
  void Extend(AggFn fn, const Value& v) {
    if (!seen) {
      extreme = v;
      seen = true;
      return;
    }
    const int c = CompareValues(v, extreme);
    if (fn == AggFn::kMin ? c < 0 : c > 0) extreme = v;
  }
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

/// The groups of one aggregation, stored in first-seen order and found by
/// group-key hash through a flat HashDirectory. A group is its key row and
/// one AggState per aggregate, kept in one flat vector. The groups of one
/// hash chain in insertion order, and a lookup charges one Comp per group
/// of its hash scanned: the per-hash bucket scan of §3.9's hash table.
class GroupTable {
 public:
  explicit GroupTable(size_t num_aggs) : num_aggs_(num_aggs) {}

  /// The group, under hash `h`, whose key `matches` accepts, added with
  /// the key `make_key()` returns when there is none. Adds the groups
  /// scanned to `*comps` and sets `*added`.
  template <typename Matches, typename MakeKey>
  uint32_t FindOrAdd(uint64_t h, const Matches& matches,
                     const MakeKey& make_key, int64_t* comps, bool* added) {
    const uint32_t id = directory_.FindOrAdd(h);
    if (id == heads_.size()) {
      heads_.push_back(HashDirectory::kNone);
      hashes_.push_back(h);
    }
    uint32_t* link = &heads_[id];
    while (*link != HashDirectory::kNone) {
      ++*comps;
      if (matches(keys_[*link])) {
        *added = false;
        return *link;
      }
      link = &next_[*link];
    }
    const uint32_t g = static_cast<uint32_t>(keys_.size());
    *link = g;
    keys_.push_back(make_key());
    next_.push_back(HashDirectory::kNone);
    states_.resize(states_.size() + num_aggs_);
    *added = true;
    return g;
  }

  /// The AggStates of group `g`, one per aggregate.
  AggState* aggs(uint32_t g) { return states_.data() + g * num_aggs_; }

  /// Folds `row` into its group under `spec`, adding the group when new.
  /// Adds the groups scanned to `*comps`; returns whether a group was
  /// added. The caller charges the row's Hash.
  bool Fold(const Row& row, const AggregateSpec& spec, int64_t* comps) {
    bool added = false;
    const uint32_t g = FindOrAdd(
        HashGroupKey(row, spec.group_by),
        [&](const Row& key) { return GroupKeyEquals(row, spec.group_by, key); },
        [&] {
          Row key;
          key.reserve(spec.group_by.size());
          for (int c : spec.group_by) {
            key.push_back(row[static_cast<size_t>(c)]);
          }
          return key;
        },
        comps, &added);
    AggState* states = aggs(g);
    for (size_t i = 0; i < num_aggs_; ++i) {
      const AggregateSpec::Aggregate& agg = spec.aggregates[i];
      states[i].Update(agg.fn, row, agg.column);
    }
    return added;
  }

  /// Calls fn(hash, key, aggs) for every group in emission order: the
  /// order in which a std::unordered_map<uint64_t, bucket> iterates after
  /// meeting the hashes in first-seen order, each bucket in insertion
  /// order. Only the distinct hashes enter the map, so emission costs a
  /// node per group, not a lookup per row.
  template <typename Fn>
  void ForEach(const Fn& fn) {
    std::unordered_map<uint64_t, uint32_t> order;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      order.emplace(hashes_[id], id);
    }
    for (const auto& [h, id] : order) {
      for (uint32_t g = heads_[id]; g != HashDirectory::kNone; g = next_[g]) {
        fn(h, keys_[g], aggs(g));
      }
    }
  }

 private:
  size_t num_aggs_;
  HashDirectory directory_;
  std::vector<uint32_t> heads_;   // first group, by directory id
  std::vector<uint64_t> hashes_;  // the hash, by directory id
  std::vector<Row> keys_;         // by group
  std::vector<uint32_t> next_;    // next group of the same hash, by group
  std::vector<AggState> states_;  // num_aggs_ per group
};

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

void EmitGroup(const Row& key, const AggState* aggs,
               const AggregateSpec& spec, Relation* out) {
  Row row = key;
  for (size_t i = 0; i < spec.aggregates.size(); ++i) {
    const AggState& st = aggs[i];
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
      case AggFn::kMax:
        row.push_back(st.extreme);
        break;
    }
  }
  out->Add(std::move(row));
}

/// One-pass hash aggregation of `n` rows into `out`; `row_at(i)` yields
/// row i, whose columns `spec` indexes. Reading through the accessor lets
/// a row-reference view aggregate its source rows in place. Charges one
/// Hash per row, one Comp per group scanned and one Move per group, all
/// tallied and charged once.
template <typename RowAt>
void AggregateInMemory(int64_t n, const RowAt& row_at,
                       const AggregateSpec& spec, ExecContext* ctx,
                       Relation* out, int64_t* num_groups) {
  GroupTable table(spec.aggregates.size());
  int64_t comps = 0;
  int64_t groups = 0;
  for (int64_t r = 0; r < n; ++r) {
    if (table.Fold(row_at(r), spec, &comps)) ++groups;
  }
  ctx->clock->Hash(n);
  ctx->clock->Comp(comps);
  ctx->clock->Move(groups);
  table.ForEach([&](uint64_t, const Row& key, const AggState* aggs) {
    EmitGroup(key, aggs, spec, out);
  });
  *num_groups += groups;
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
/// exactly the serial tallies, with every g_w cancelled out. A morsel
/// charges its tallies once.
Status ParallelAggregateFit(const std::vector<Row>& rows,
                            const AggregateSpec& spec, ExecContext* ctx,
                            Relation* out, int64_t* num_groups) {
  const std::vector<IndexRange> morsels =
      MorselRanges(static_cast<int64_t>(rows.size()));
  const int workers =
      std::max(1, PlannedWorkers(ctx, static_cast<int64_t>(morsels.size())));
  std::vector<GroupTable> locals(static_cast<size_t>(workers),
                                 GroupTable(spec.aggregates.size()));
  MMDB_RETURN_IF_ERROR(ParallelFor(
      ctx, static_cast<int64_t>(morsels.size()),
      [&](ExecContext* wctx, int worker, int64_t m) {
        GroupTable& table = locals[static_cast<size_t>(worker)];
        const IndexRange range = morsels[static_cast<size_t>(m)];
        int64_t comps = 0;
        for (int64_t i = range.begin; i < range.end; ++i) {
          table.Fold(rows[static_cast<size_t>(i)], spec, &comps);
        }
        wctx->clock->Hash(range.end - range.begin);
        wctx->clock->Comp(comps);
        return Status::OK();
      }));

  GroupTable global(spec.aggregates.size());
  int64_t comps = 0;
  int64_t groups = 0;
  for (GroupTable& local : locals) {
    local.ForEach([&](uint64_t h, Row& key, const AggState* aggs) {
      bool added = false;
      const uint32_t g = global.FindOrAdd(
          h,
          [&](const Row& other) {
            return std::equal(key.begin(), key.end(), other.begin(),
                              other.end(), ValuesEqual);
          },
          [&] { return std::move(key); }, &comps, &added);
      AggState* into = global.aggs(g);
      if (added) {
        ++groups;
        std::copy(aggs, aggs + spec.aggregates.size(), into);
        return;
      }
      for (size_t a = 0; a < spec.aggregates.size(); ++a) {
        into[a].Merge(spec.aggregates[a].fn, aggs[a]);
      }
    });
  }
  ctx->clock->Comp(comps);
  ctx->clock->Move(groups);
  global.ForEach([&](uint64_t, const Row& key, const AggState* aggs) {
    EmitGroup(key, aggs, spec, out);
  });
  *num_groups += groups;
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
