#include "exec/join.h"

#include "common/check.h"

namespace mmdb {

std::string_view JoinAlgorithmName(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop:
      return "nested-loop";
    case JoinAlgorithm::kSortMerge:
      return "sort-merge";
    case JoinAlgorithm::kSimpleHash:
      return "simple-hash";
    case JoinAlgorithm::kGraceHash:
      return "grace-hash";
    case JoinAlgorithm::kHybridHash:
      return "hybrid-hash";
  }
  return "unknown";
}

namespace exec_internal {

void JoinHashTable::Insert(Row row) {
  const uint32_t b =
      directory_.FindOrAdd(HashValue(row[static_cast<size_t>(key_column_)]));
  if (b == buckets_.size()) buckets_.emplace_back();
  buckets_[b].push_back(std::move(row));
  ++size_;
}

void EmitJoined(const Row& r_row, const Row& s_row, Relation* out) {
  out->Add(ConcatRows(r_row, s_row));
}

namespace {

/// Emits build row ++ probe view row `i` into `out`.
void EmitJoinedView(const Row& r_row, const RowView& probe, int64_t i,
                    Relation* out) {
  const Row& s_row = probe.row(i);
  if (probe.identity()) {
    EmitJoined(r_row, s_row, out);
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

Relation ProbeHashTable(const JoinHashTable& table, const Schema& build_schema,
                        const RowView& probe, int probe_key, ExecContext* ctx) {
  Relation out(Schema::Concat(build_schema, probe.schema()));
  const size_t key = probe.source_column(probe_key);
  const int64_t n = probe.size();
  int64_t comps = 0;
  for (int64_t i = 0; i < n; ++i) {
    comps += table.Match(probe.row(i)[key], [&](const Row& r_row) {
      EmitJoinedView(r_row, probe, i, &out);
    });
  }
  ctx->clock->Hash(n);
  ctx->clock->Comp(comps);
  return out;
}

void PublishJoinRun(ExecContext* ctx, int64_t build_tuples,
                    int64_t probe_tuples, const JoinRunStats& st) {
  if (ctx == nullptr || ctx->metrics == nullptr) return;
  MetricsRegistry* m = ctx->metrics;
  m->Add("exec.join.runs", 1);
  m->Add("exec.join.build_tuples", build_tuples);
  m->Add("exec.join.probe_tuples", probe_tuples);
  m->Add("exec.join.output_tuples", st.output_tuples);
  m->Add("exec.join.passes", st.passes);
  m->Add("exec.join.spilled_partitions", st.partitions);
  m->Add("exec.join.recursions", st.recursion_depth);
  m->Add("exec.join.migrations", st.migrations);
  m->Add("exec.join.forced_probes", st.forced_probes);
  m->Record("exec.join.fanout", st.output_tuples);
}

}  // namespace exec_internal

StatusOr<Relation> NestedLoopJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx) {
  Relation out(Schema::Concat(r.schema(), s.schema()));
  for (const Row& rr : r.rows()) {
    const Value& rkey = rr[static_cast<size_t>(spec.left_column)];
    for (const Row& sr : s.rows()) {
      if (ctx != nullptr && ctx->clock != nullptr) ctx->clock->Comp();
      if (ValuesEqual(rkey, sr[static_cast<size_t>(spec.right_column)])) {
        exec_internal::EmitJoined(rr, sr, &out);
      }
    }
  }
  return out;
}

namespace {

StatusOr<Relation> DispatchJoin(JoinAlgorithm algorithm, const Relation& r,
                                const Relation& s, const JoinSpec& spec,
                                ExecContext* ctx, JoinRunStats* stats) {
  switch (algorithm) {
    case JoinAlgorithm::kNestedLoop: {
      StatusOr<Relation> out = NestedLoopJoin(r, s, spec, ctx);
      if (out.ok()) stats->output_tuples = out->num_tuples();
      return out;
    }
    case JoinAlgorithm::kSortMerge:
      return SortMergeJoin(r, s, spec, ctx, stats);
    case JoinAlgorithm::kSimpleHash:
      return SimpleHashJoin(r, s, spec, ctx, stats);
    case JoinAlgorithm::kGraceHash:
      return GraceHashJoin(r, s, spec, ctx, stats);
    case JoinAlgorithm::kHybridHash:
      return HybridHashJoin(r, s, spec, ctx, stats);
  }
  return Status::InvalidArgument("unknown join algorithm");
}

}  // namespace

StatusOr<Relation> ExecuteJoin(JoinAlgorithm algorithm, const Relation& r,
                               const Relation& s, const JoinSpec& spec,
                               ExecContext* ctx, JoinRunStats* stats) {
  JoinRunStats local;
  JoinRunStats* st = stats != nullptr ? stats : &local;
  *st = JoinRunStats{};
  StatusOr<Relation> out = DispatchJoin(algorithm, r, s, spec, ctx, st);
  if (out.ok()) {
    exec_internal::PublishJoinRun(ctx, r.num_tuples(), s.num_tuples(), *st);
  }
  return out;
}

}  // namespace mmdb
