#include "exec/aggregate.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "common/hash_directory.h"
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

  /// Folds `row` into its group under `spec`, adding the group when new.
  /// Adds the groups scanned to `*comps`; returns whether a group was
  /// added. The caller charges the row's Hash.
  bool Fold(const Row& row, const AggregateSpec& spec, int64_t* comps) {
    const uint64_t h = HashGroupKey(row, spec.group_by);
    const uint32_t id = directory_.FindOrAdd(h);
    if (id == heads_.size()) {
      heads_.push_back(HashDirectory::kNone);
      hashes_.push_back(h);
    }
    uint32_t* link = &heads_[id];
    for (; *link != HashDirectory::kNone; link = &next_[*link]) {
      ++*comps;
      if (GroupKeyEquals(row, spec.group_by, keys_[*link])) break;
    }
    const bool added = *link == HashDirectory::kNone;
    if (added) {
      *link = static_cast<uint32_t>(keys_.size());
      Row key;
      key.reserve(spec.group_by.size());
      for (int c : spec.group_by) key.push_back(row[static_cast<size_t>(c)]);
      keys_.push_back(std::move(key));
      next_.push_back(HashDirectory::kNone);
      states_.resize(states_.size() + num_aggs_);
    }
    AggState* states = aggs(*link);
    for (size_t i = 0; i < num_aggs_; ++i) {
      const AggregateSpec::Aggregate& agg = spec.aggregates[i];
      states[i].Update(agg.fn, row, agg.column);
    }
    return added;
  }

  /// Calls fn(key, aggs) for every group in emission order: the
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
    for (const auto& entry : order) {
      for (uint32_t g = heads_[entry.second]; g != HashDirectory::kNone;
           g = next_[g]) {
        fn(keys_[g], aggs(g));
      }
    }
  }

 private:
  /// The AggStates of group `g`, one per aggregate.
  AggState* aggs(uint32_t g) { return states_.data() + g * num_aggs_; }

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
  table.ForEach([&](const Row& key, const AggState* aggs) {
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
  // A partitioned run reads row-major rows: the view's source when the
  // view is all of it, else a copy, taken before the run starts.
  Relation copy;
  if (!one_pass && !input.identity()) copy = input.Materialize();
  const Relation& rows = input.identity() ? *input.source() : copy;
  Relation out(AggregateOutputSchema(input.schema(), spec));
  AggStats local;
  AggStats* st = stats != nullptr ? stats : &local;
  *st = AggStats{};
  st->one_pass = one_pass;
  const double seconds_before = ctx->clock->Seconds();
  if (one_pass) {
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
