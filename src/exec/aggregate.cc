#include "exec/aggregate.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "common/hash_directory.h"
#include "exec/partitioner.h"
#include "storage/heap_file.h"

namespace mmdb {

namespace {

/// An AggregateSpec over the columns of view `in`, resolved to the fields
/// of its source records that its group-by columns and aggregates read.
struct BoundSpec {
  struct Agg {
    AggFn fn;
    Field field;  ///< unused by COUNT
  };

  BoundSpec(const RowView& in, const AggregateSpec& spec) {
    auto field = [&in](int c) {
      return Field::Of(in.source()->schema(), in.source_column(c));
    };
    for (int c : spec.group_by) group.push_back(field(c));
    for (const AggregateSpec::Aggregate& a : spec.aggregates) {
      aggs.push_back(
          Agg{a.fn, a.fn == AggFn::kCount ? Field{} : field(a.column)});
    }
  }

  std::vector<Field> group;
  std::vector<Agg> aggs;
};

/// Running state of one aggregate over one group, kept only as its AggFn
/// needs: COUNT and AVG count rows, SUM and AVG add, MIN and MAX keep the
/// record holding the extreme value (records stay put while grouped).
struct AggState {
  int64_t count = 0;
  double sum = 0;
  const char* extreme = nullptr;

  void Update(const BoundSpec::Agg& agg, const char* rec) {
    switch (agg.fn) {
      case AggFn::kCount:
        ++count;
        return;
      case AggFn::kAvg:
        ++count;
        [[fallthrough]];
      case AggFn::kSum:
        sum += agg.field.type == ValueType::kInt64
                   ? double(agg.field.Int(rec))
                   : agg.field.Double(rec);
        return;
      case AggFn::kMin:
      case AggFn::kMax: {
        if (extreme == nullptr) {
          extreme = rec;
          return;
        }
        const int c = CompareFields(agg.field, rec, agg.field, extreme);
        if (agg.fn == AggFn::kMin ? c < 0 : c > 0) extreme = rec;
        return;
      }
    }
  }
};

uint64_t HashGroupKey(const char* rec, const std::vector<Field>& group) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const Field& f : group) h = HashCombine(h, f.Hash(rec));
  return h;
}

bool GroupKeyEquals(const char* rec, const char* key,
                    const std::vector<Field>& group) {
  for (const Field& f : group) {
    if (CompareFields(f, rec, f, key) != 0) return false;
  }
  return true;
}

/// The groups of one aggregation, stored in first-seen order and found by
/// group-key hash through a flat HashDirectory. A group is the first
/// record it met (its key) and one AggState per aggregate, kept in one
/// flat vector; the records must stay put until the groups are emitted.
/// The groups of one hash chain in insertion order, and a lookup charges
/// one Comp per group of its hash scanned: the per-hash bucket scan of
/// §3.9's hash table.
class GroupTable {
 public:
  explicit GroupTable(const BoundSpec& spec) : spec_(spec) {}

  /// Folds `rec` into its group, adding the group when new. Adds the
  /// groups scanned to `*comps`; returns whether a group was added. The
  /// caller charges the row's Hash.
  bool Fold(const char* rec, int64_t* comps) {
    const uint64_t h = HashGroupKey(rec, spec_.group);
    const uint32_t id = directory_.FindOrAdd(h);
    if (id == heads_.size()) {
      heads_.push_back(HashDirectory::kNone);
      hashes_.push_back(h);
    }
    uint32_t* link = &heads_[id];
    for (; *link != HashDirectory::kNone; link = &next_[*link]) {
      ++*comps;
      if (GroupKeyEquals(rec, keys_[*link], spec_.group)) break;
    }
    const bool added = *link == HashDirectory::kNone;
    if (added) {
      *link = static_cast<uint32_t>(keys_.size());
      keys_.push_back(rec);
      next_.push_back(HashDirectory::kNone);
      states_.resize(states_.size() + spec_.aggs.size());
    }
    AggState* states = aggs(*link);
    for (size_t i = 0; i < spec_.aggs.size(); ++i) {
      states[i].Update(spec_.aggs[i], rec);
    }
    return added;
  }

  /// Calls fn(key record, aggs) for every group in emission order: the
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
  AggState* aggs(uint32_t g) {
    return states_.data() + g * spec_.aggs.size();
  }

  const BoundSpec& spec_;
  HashDirectory directory_;
  std::vector<uint32_t> heads_;     // first group, by directory id
  std::vector<uint64_t> hashes_;    // the hash, by directory id
  std::vector<const char*> keys_;   // first record, by group
  std::vector<uint32_t> next_;      // next group of the same hash, by group
  std::vector<AggState> states_;    // one per aggregate per group
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

/// Appends one group's result record to `out`: the key's group-by fields,
/// then each aggregate.
void EmitGroup(const char* key, const AggState* aggs, const BoundSpec& spec,
               Relation* out) {
  const Schema& schema = out->schema();
  char* dst = out->AppendRecord();
  int c = 0;
  for (const Field& f : spec.group) {
    std::memcpy(dst + schema.offset(c++), key + f.offset,
                static_cast<size_t>(f.width));
  }
  for (size_t i = 0; i < spec.aggs.size(); ++i, ++c) {
    const AggState& st = aggs[i];
    char* field = dst + schema.offset(c);
    switch (spec.aggs[i].fn) {
      case AggFn::kCount:
        std::memcpy(field, &st.count, sizeof(st.count));
        break;
      case AggFn::kSum:
        std::memcpy(field, &st.sum, sizeof(st.sum));
        break;
      case AggFn::kAvg: {
        const double avg = st.count == 0 ? 0.0 : st.sum / double(st.count);
        std::memcpy(field, &avg, sizeof(avg));
        break;
      }
      case AggFn::kMin:
      case AggFn::kMax: {
        const Field& f = spec.aggs[i].field;
        std::memcpy(field, st.extreme + f.offset, static_cast<size_t>(f.width));
        break;
      }
    }
  }
}

/// One-pass hash aggregation of `n` records into `out`; `rec_at(i)` yields
/// record i, in the format `spec` was bound to. Reading through the
/// accessor lets a view aggregate its source records in place. Charges one
/// Hash per row, one Comp per group scanned and one Move per group, all
/// tallied and charged once.
template <typename RecAt>
void AggregateInMemory(int64_t n, const RecAt& rec_at, const BoundSpec& spec,
                       ExecContext* ctx, Relation* out, int64_t* num_groups) {
  GroupTable table(spec);
  int64_t comps = 0;
  int64_t groups = 0;
  for (int64_t r = 0; r < n; ++r) {
    if (table.Fold(rec_at(r), &comps)) ++groups;
  }
  ctx->clock->Hash(n);
  ctx->clock->Comp(comps);
  ctx->clock->Move(groups);
  out->Reserve(groups);
  table.ForEach([&](const char* key, const AggState* aggs) {
    EmitGroup(key, aggs, spec, out);
  });
  *num_groups += groups;
}

/// The serial aggregation at recursion `depth`. `rows` is only read: at
/// depth 0 it is the caller's input, used in place. Deeper levels own the
/// partition they read back from a spill file and pass it as `owned`
/// (== &rows), which is released once it has been re-partitioned, so a
/// recursion holds one level's rows at a time.
Status AggregateRec(const Relation& rows, Relation* owned,
                    const BoundSpec& spec, ExecContext* ctx, int depth,
                    Relation* out, AggStats* stats) {
  const Schema& in_schema = rows.schema();
  const int64_t capacity =
      std::max<int64_t>(1, ctx->TuplesInPages(in_schema, ctx->memory_pages));
  const int64_t n = rows.num_tuples();
  if (n <= capacity || depth >= 4) {
    int64_t groups = 0;
    AggregateInMemory(
        n, [&rows](int64_t i) { return rows.record(i); }, spec, ctx, out,
        &groups);
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
  for (int64_t i = 0; i < n; ++i) {
    const char* rec = rows.record(i);
    ctx->clock->Hash();
    // Partition on the combined group key hash.
    const uint64_t h = HashGroupKey(rec, spec.group);
    const int64_t p =
        static_cast<int64_t>(Mix64(h ^ (0xABCDull * (depth + 1))) %
                             static_cast<uint64_t>(b));
    MMDB_RETURN_IF_ERROR(writers.Append(p, rec));
  }
  if (owned != nullptr) *owned = Relation(in_schema);
  MMDB_RETURN_IF_ERROR(writers.FinishAll());
  for (const auto& pf : writers.Release()) {
    if (pf.records == 0) {
      ctx->disk->DeleteFile(pf.file);
      continue;
    }
    MMDB_ASSIGN_OR_RETURN(Relation part,
                          ReadAndDeletePartition(ctx, in_schema, pf));
    MMDB_RETURN_IF_ERROR(
        AggregateRec(part, &part, spec, ctx, depth + 1, out, stats));
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
  Relation out(AggregateOutputSchema(input.schema(), spec));
  AggStats local;
  AggStats* st = stats != nullptr ? stats : &local;
  *st = AggStats{};
  st->one_pass = one_pass;
  const double seconds_before = ctx->clock->Seconds();
  if (one_pass) {
    // Grouped in place, reading the view's source records.
    AggregateInMemory(
        input.size(), [&input](int64_t i) { return input.record(i); },
        BoundSpec(input, spec), ctx, &out, &st->groups);
  } else {
    // A partitioned run reads whole records: the view's source when the
    // view is all of it, else a copy.
    Relation copy;
    if (!input.identity()) copy = input.Materialize();
    const Relation& rows = input.identity() ? *input.source() : copy;
    MMDB_RETURN_IF_ERROR(AggregateRec(rows, nullptr,
                                      BoundSpec(RowView(&rows), spec), ctx, 0,
                                      &out, st));
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
