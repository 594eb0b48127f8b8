#include "exec/join.h"

#include <algorithm>

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

Relation ProbeHashTable(const JoinHashTable& table, const Schema& build_schema,
                        const RowView& probe, int probe_key, ExecContext* ctx) {
  Relation out(Schema::Concat(build_schema, probe.schema()));
  const Field key =
      Field::Of(probe.source()->schema(), probe.source_column(probe_key));
  const int32_t build_size = build_schema.record_size();
  const int64_t n = probe.size();
  const char* probes[kHashBatch];
  int64_t comps = 0;
  for (int64_t first = 0; first < n; first += kHashBatch) {
    const int batch =
        static_cast<int>(std::min<int64_t>(kHashBatch, n - first));
    for (int i = 0; i < batch; ++i) probes[i] = probe.record(first + i);
    comps += table.ProbeBatch(key, probes, batch, [&](const char* rec, int i) {
      char* dst = out.AppendRecord();
      std::memcpy(dst, rec, static_cast<size_t>(build_size));
      probe.CopyTo(first + i, dst + build_size);
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
  const Field rkey = Field::Of(r.schema(), spec.left_column);
  const Field skey = Field::Of(s.schema(), spec.right_column);
  const int32_t r_size = r.schema().record_size();
  for (int64_t i = 0; i < r.num_tuples(); ++i) {
    const char* rr = r.record(i);
    for (int64_t j = 0; j < s.num_tuples(); ++j) {
      const char* sr = s.record(j);
      if (ctx != nullptr && ctx->clock != nullptr) ctx->clock->Comp();
      if (CompareFields(rkey, rr, skey, sr) == 0) {
        exec_internal::EmitJoined(rr, r_size, sr, &out);
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
