#include "exec/aggregate.h"

#include <algorithm>
#include <cstring>

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
};

/// Folds the record at recs[i] into the state at states[groups[i] *
/// stride] for i < n, in row order, as `agg` does. The function and the
/// field's type are resolved once for the batch.
void FoldAggregate(const BoundSpec::Agg& agg, const char* const* recs,
                   const uint32_t* groups, int n, AggState* states,
                   size_t stride) {
  auto state = [&](int i) -> AggState& {
    return states[groups[i] * stride];
  };
  const Field f = agg.field;
  switch (agg.fn) {
    case AggFn::kCount:
      for (int i = 0; i < n; ++i) ++state(i).count;
      return;
    case AggFn::kSum:
    case AggFn::kAvg: {
      if (agg.fn == AggFn::kAvg) {
        for (int i = 0; i < n; ++i) ++state(i).count;
      }
      if (f.type == ValueType::kInt64) {
        for (int i = 0; i < n; ++i) state(i).sum += double(f.Int(recs[i]));
      } else {
        for (int i = 0; i < n; ++i) state(i).sum += f.Double(recs[i]);
      }
      return;
    }
    case AggFn::kMin:
    case AggFn::kMax: {
      const int wins = agg.fn == AggFn::kMin ? -1 : 1;
      WithFieldOps(f.type, [&](auto ops) {
        for (int i = 0; i < n; ++i) {
          AggState& st = state(i);
          if (st.extreme == nullptr ||
              ops.Compare(f, recs[i], f, st.extreme) == wins) {
            st.extreme = recs[i];
          }
        }
      });
      return;
    }
  }
}

/// The seed every group-key hash starts from.
constexpr uint64_t kGroupSeed = 0x9E3779B97F4A7C15ull;

/// hashes[i] = the group-key hash of recs[i] for i < n, a key field at a
/// time with the field's type resolved once: HashCombine of the seed and
/// each key field's hash in turn.
void HashGroupKeys(const char* const* recs, int n,
                   const std::vector<Field>& group, uint64_t* hashes) {
  if (group.empty()) {
    for (int i = 0; i < n; ++i) hashes[i] = kGroupSeed;
    return;
  }
  for (size_t k = 0; k < group.size(); ++k) {
    const Field f = group[k];
    WithFieldOps(f.type, [&](auto ops) {
      if (k == 0) {
        for (int i = 0; i < n; ++i) {
          hashes[i] = HashCombine(kGroupSeed, ops.Hash(f, recs[i]));
        }
        return;
      }
      for (int i = 0; i < n; ++i) {
        hashes[i] = HashCombine(hashes[i], ops.Hash(f, recs[i]));
      }
    });
  }
}

bool GroupKeyEquals(const char* rec, const char* key,
                    const std::vector<Field>& group) {
  for (const Field& f : group) {
    if (CompareFields(f, rec, f, key) != 0) return false;
  }
  return true;
}

/// The groups of one aggregation in first-seen order, chained by
/// group-key hash in a HashChains table (one entry per group). A group is
/// the first record it met (its key) and one AggState per aggregate, kept
/// in one flat vector; the records must stay put until the groups are
/// emitted. A chain holds its groups in insertion order, and a lookup
/// charges one Comp per group of its hash scanned: the per-hash bucket
/// scan of §3.9's hash table.
///
/// Grouped on one INT64 column, the key hash is HashCombine of a fixed
/// seed and Mix64 of the key, and both are bijections, so distinct keys
/// have distinct hashes and a chain holds exactly one group: a row's
/// group is its chain's one group, found with the one Comp the scan
/// charges, or a new group when the chain is empty.
class GroupTable {
 public:
  explicit GroupTable(const BoundSpec& spec)
      : spec_(spec),
        one_key_per_chain_(spec.group.size() == 1 &&
                           spec.group[0].type == ValueType::kInt64) {}

  /// Folds the `n` <= kHashBatch records at `recs` into their groups in
  /// row order, adding the new groups in first-seen order. Adds the groups
  /// scanned to `*comps`; the caller charges the rows' Hashes. A batch
  /// hashes its keys a field at a time, finds their chains in one
  /// directory batch and tests each row against its chain's head; only a
  /// row whose head holds another key (a new group, or a hash shared by
  /// two keys) walks its chain.
  void FoldBatch(const char* const* recs, int n, int64_t* comps) {
    uint64_t hashes[kHashBatch];
    HashGroupKeys(recs, n, spec_.group, hashes);
    uint32_t chains[kHashBatch];
    chains_.Chains(hashes, n, chains);
    uint32_t groups[kHashBatch];
    if (one_key_per_chain_) {
      // A chain's one group is numbered as the chain is: both number the
      // keys in first-seen order. A row whose chain already has its group
      // scans that one group.
      for (int i = 0; i < n; ++i) {
        groups[i] = chains[i];
        if (chains[i] < keys_.size()) {
          ++*comps;
        } else {
          AddGroup(recs[i], chains[i]);
        }
      }
    } else {
      uint8_t at_head[kHashBatch];
      HeadsHolding(recs, n, chains, groups, at_head);
      for (int i = 0; i < n; ++i) {
        if (at_head[i]) {
          ++*comps;
        } else {
          groups[i] = FindOrAddGroup(recs[i], chains[i], comps);
        }
      }
    }
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      FoldAggregate(spec_.aggs[a], recs, groups, n, states_.data() + a,
                    spec_.aggs.size());
    }
  }

  /// Groups added.
  int64_t size() const { return static_cast<int64_t>(keys_.size()); }

  /// Calls fn(key record, aggs) for every group, in first-seen order.
  template <typename Fn>
  void ForEach(const Fn& fn) {
    for (uint32_t g = 0; g < keys_.size(); ++g) fn(keys_[g], aggs(g));
  }

 private:
  /// groups[i] = the head of chains[i], and at_head[i] = whether that
  /// group holds recs[i]'s key, a key field at a time.
  void HeadsHolding(const char* const* recs, int n, const uint32_t* chains,
                    uint32_t* groups, uint8_t* at_head) const {
    const char* heads[kHashBatch];
    for (int i = 0; i < n; ++i) {
      const uint32_t g = chains_.head(chains[i]);
      groups[i] = g;
      at_head[i] = g != HashChains::kEnd;
      heads[i] = at_head[i] ? keys_[g] : recs[i];  // no head: compare itself
    }
    for (const Field& f : spec_.group) {
      WithFieldOps(f.type, [&](auto ops) {
        for (int i = 0; i < n; ++i) {
          at_head[i] &= ops.Compare(f, recs[i], f, heads[i]) == 0;
        }
      });
    }
  }

  /// The group of `rec`, whose key hashes to chain `chain`, added when
  /// new: the chain walk, one Comp per group scanned.
  uint32_t FindOrAddGroup(const char* rec, uint32_t chain, int64_t* comps) {
    uint32_t g = chains_.head(chain);
    for (; g != HashChains::kEnd; g = chains_.next(g)) {
      ++*comps;
      if (GroupKeyEquals(rec, keys_[g], spec_.group)) return g;
    }
    return AddGroup(rec, chain);
  }

  /// A new group keyed by `rec`, appended to chain `chain`.
  uint32_t AddGroup(const char* rec, uint32_t chain) {
    const uint32_t g = chains_.Append(chain);
    keys_.push_back(rec);
    states_.resize(states_.size() + spec_.aggs.size());
    return g;
  }

  /// The AggStates of group `g`, one per aggregate.
  AggState* aggs(uint32_t g) {
    return states_.data() + g * spec_.aggs.size();
  }

  const BoundSpec& spec_;
  const bool one_key_per_chain_;
  HashChains chains_;
  std::vector<const char*> keys_;   // first record, by group
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

/// One-pass hash aggregation of the rows `in` yields into `out`, in the
/// format `spec` was bound to, read in place a block at a time and folded
/// kHashBatch rows at a time. Charges one Hash per row, one Comp per group
/// scanned and one Move per group, all tallied and charged once the rows
/// are read: a filter that `in` runs as it is read charges its own Comps
/// before, and only these charges are added to `st->cost_seconds`. Adds
/// the groups to `st->groups`; returns the number of rows.
int64_t AggregateInMemory(BlockSource* in, const BoundSpec& spec,
                          ExecContext* ctx, Relation* out, AggStats* st) {
  GroupTable table(spec);
  int64_t comps = 0;
  const Relation& source = *in->columns().source();
  const int64_t n = in->Drive([&](const int64_t* ords, int64_t k) {
    const char* recs[kHashBatch];
    for (int64_t first = 0; first < k; first += kHashBatch) {
      const int batch =
          static_cast<int>(std::min<int64_t>(kHashBatch, k - first));
      for (int i = 0; i < batch; ++i) recs[i] = source.record(ords[first + i]);
      table.FoldBatch(recs, batch, &comps);
    }
  });
  const double seconds_before = ctx->clock->Seconds();
  const int64_t groups = table.size();
  ctx->clock->Hash(n);
  ctx->clock->Comp(comps);
  ctx->clock->Move(groups);
  out->Reserve(groups);
  table.ForEach([&](const char* key, const AggState* aggs) {
    EmitGroup(key, aggs, spec, out);
  });
  st->groups += groups;
  st->cost_seconds += ctx->clock->Seconds() - seconds_before;
  return n;
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
    const RowView view(&rows);
    ViewBlocks source(view);
    AggregateInMemory(&source, spec, ctx, out, stats);
    return Status::OK();
  }
  // Partition on the grouping hash; groups cannot straddle partitions.
  const int64_t b = std::max<int64_t>(
      2, std::min<int64_t>(ctx->memory_pages, (n + capacity - 1) / capacity));
  if (depth == 0) stats->partitions = b;
  PartitionWriterSet writers(ctx, in_schema, b,
                             b <= 1 ? IoKind::kSequential : IoKind::kRandom,
                             "agg_part");
  for (int64_t i = 0; i < n; ++i) {
    const char* rec = rows.record(i);
    ctx->clock->Hash();
    // Partition on the combined group key hash.
    uint64_t h = 0;
    HashGroupKeys(&rec, 1, spec.group, &h);
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
/// recurses on overflow partitions internally, so only the entries count).
void FinishAggregateRun(ExecContext* ctx, int64_t input_tuples,
                        const AggStats* st) {
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
  ViewBlocks source(input);
  return AggregateRows(&source, spec, ctx, stats);
}

StatusOr<Relation> AggregateRows(BlockSource* input, const AggregateSpec& spec,
                                 ExecContext* ctx, AggStats* stats) {
  const Schema& schema = input->columns().schema();
  MMDB_RETURN_IF_ERROR(ValidateAggregateSpec(schema, spec));
  const int64_t capacity =
      std::max<int64_t>(1, ctx->TuplesInPages(schema, ctx->memory_pages));
  // Rows that may not fit one pass are collected and counted first: the
  // pipeline breaks here.
  const bool one_pass = input->max_rows() <= capacity ||
                        input->Collect().size() <= capacity;
  Relation out(AggregateOutputSchema(schema, spec));
  AggStats local;
  AggStats* st = stats != nullptr ? stats : &local;
  *st = AggStats{};
  st->one_pass = one_pass;
  int64_t rows = 0;
  if (one_pass) {
    // Grouped in place, reading the source records as the rows arrive.
    rows = AggregateInMemory(input, BoundSpec(input->columns(), spec), ctx,
                             &out, st);
  } else {
    // A partitioned run reads whole records: the view's source when the
    // view is all of it, else a copy.
    const RowView& view = input->Collect();
    rows = view.size();
    const double seconds_before = ctx->clock->Seconds();
    Relation copy;
    if (!view.identity()) copy = view.Materialize();
    const Relation& whole = view.identity() ? *view.source() : copy;
    MMDB_RETURN_IF_ERROR(AggregateRec(whole, nullptr,
                                      BoundSpec(RowView(&whole), spec), ctx, 0,
                                      &out, st));
    st->cost_seconds = ctx->clock->Seconds() - seconds_before;
  }
  FinishAggregateRun(ctx, rows, st);
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
