#include "optimizer/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>

#include "cache/reuse_cache.h"
#include "common/check.h"
#include "cost/join_cost.h"
#include "exec/aggregate.h"
#include "optimizer/optimizer.h"

namespace mmdb {

namespace {

/// Per-run reuse-cache state: the plan's fingerprints and admission
/// (computed once up front) and each node's cache outcome, copied into the
/// trace at the end.
struct CacheRun {
  ReuseCache* cache = nullptr;
  ReuseCache::Fingerprints fps;
  std::map<const PlanNode*, CacheState> state;
};

/// One plan node's output inside ExecutePlan (DESIGN.md §14): a RowView
/// plus whatever keeps its source alive — rows the node owns, a resident
/// catalog table (nothing to hold), or a pinned reuse-cache result (`pin_`
/// keeps an evicted entry alive) — and, after a Filter, the conjunction
/// still to run over the view's rows. Filter narrows the view's rows and
/// Project its column map; both hand the holder on unchanged. Reading
/// catalog tables in place is safe because SQL reads hold the shared
/// database latch for the whole statement and writers take it
/// exclusively; no view outlives the statement, because ExecutePlan
/// materializes (or aggregates) its root.
///
/// The block pipeline: a Filter does not run where it stands. Its result
/// is a block source (BlockSource) whose consumer — the in-memory join's
/// probe, the root's GROUP BY fold or the root's materialize — drives it,
/// so the filter reads each block of records and the consumer reads the
/// block's survivors while they are still in cache. Every other consumer
/// is a pipeline breaker and collects the survivors first (Collect): a
/// join's build side, a spilling join, a partitioned aggregate, and each
/// node the reuse cache admitted before the statement ran (a declined
/// node pipelines as if the cache were off).
class NodeResult final : public BlockSource {
 public:
  static NodeResult Owned(Relation rel) {
    NodeResult r;
    r.owns_ = true;
    r.owned_ = std::move(rel);
    r.view_ = RowView(&r.owned_);
    return r;
  }
  static NodeResult Borrow(const Relation* rel,
                           std::shared_ptr<const Relation> pin = nullptr) {
    NodeResult r;
    r.view_ = RowView(rel);
    r.pin_ = std::move(pin);
    return r;
  }

  // Moving an owner keeps its view valid: the records' blocks move with
  // the relation, selections are ordinals, and only the view's source
  // follows the relation to its new address.
  NodeResult(NodeResult&& other) noexcept { *this = std::move(other); }
  NodeResult& operator=(NodeResult&& other) noexcept {
    owns_ = other.owns_;
    owned_ = std::move(other.owned_);
    pin_ = std::move(other.pin_);
    view_ = std::move(other.view_);
    filter_ = std::move(other.filter_);
    drained_ = other.drained_;
    if (owns_) view_.set_source(&owned_);
    return *this;
  }

  /// Leaves the conjunction `preds` (bound to the view's source records,
  /// most selective first) to run when the rows are read.
  void FilterLater(std::vector<BoundPredicate> preds, ExecContext* ctx) {
    MMDB_CHECK(filter_ == nullptr);
    filter_ = std::make_unique<PendingFilter>();
    filter_->preds = std::move(preds);
    filter_->ctx = ctx;
  }
  bool pending() const { return filter_ != nullptr; }
  /// Adds the pending filter's figures to `st` too when it runs: `st` is a
  /// traced node whose window closed before its consumer read the rows.
  void CreditTo(PlanNodeRunStats* st) { filter_->credit.push_back(st); }

  const RowView& columns() const override { return view_; }
  int64_t max_rows() const override { return view_.size(); }
  int64_t Drive(const BlockSink& sink) override {
    MMDB_CHECK(!drained_);
    if (filter_ == nullptr) {
      view_.ForEachBlock(sink);
      return view_.size();
    }
    drained_ = true;  // the survivors are handed on, not kept
    return RunFilter(sink);
  }
  const RowView& Collect() override {
    MMDB_CHECK(!drained_);
    if (filter_ != nullptr) {
      std::vector<int64_t> survivors;
      RunFilter([&survivors](const int64_t* ords, int64_t k) {
        survivors.insert(survivors.end(), ords, ords + k);
      });
      // Sized exactly: the selection lives until the statement ends, so a
      // regrown vector's slack would stay resident beside the other
      // sessions'.
      survivors.shrink_to_fit();
      view_.Select(std::move(survivors));
    }
    return view_;
  }

  /// The rows as a view: a pending filter must be collected first.
  const RowView& view() const {
    MMDB_CHECK(filter_ == nullptr && !drained_);
    return view_;
  }
  /// The view, to change its column map (Project); a pending filter reads
  /// source columns, so it is left as it is.
  RowView* mutable_view() { return &view_; }

  /// The rows as an owned relation: moved out when the node owns exactly
  /// the rows its view shows, copied otherwise.
  Relation Materialize() && {
    if (owns_ && filter_ == nullptr && view_.identity()) {
      return std::move(owned_);
    }
    return CopyRows();
  }
  /// The rows as a relation for the row-major join kernels: the view's
  /// source when the view is all of it, else a copy kept in `*copy`.
  const Relation& Rows(Relation* copy) {
    if (filter_ == nullptr && view_.identity()) return *view_.source();
    *copy = CopyRows();
    return *copy;
  }

 private:
  /// A Filter's conjunction over the view's rows, not yet run.
  struct PendingFilter {
    std::vector<BoundPredicate> preds;
    ExecContext* ctx = nullptr;
    /// Traced nodes whose figures include this filter's work.
    std::vector<PlanNodeRunStats*> credit;
  };

  NodeResult() = default;

  /// Every row, copied into a new relation of the view's schema, as a
  /// pending filter hands them on.
  Relation CopyRows() {
    if (filter_ == nullptr) return view_.Materialize();
    Relation out(view_.schema());
    const Relation& source = *view_.source();
    Drive([&](const int64_t* ords, int64_t k) {
      for (int64_t i = 0; i < k; ++i) {
        view_.CopyRecord(source.record(ords[i]), out.AppendRecord());
      }
    });
    return out;
  }

  /// Runs the pending filter over the view's rows a block at a time
  /// (SelectBlocks), handing each block's survivors to `sink`, and returns
  /// how many survived. Charges the Comps once, counts exec.filter.rows_*,
  /// and adds the filter's rows, Comps, cost and wall time to the credited
  /// nodes: the wall time is that of the filter stage only, taken around
  /// each block's selection, so the consumer's work stays its own.
  int64_t RunFilter(const BlockSink& sink) {
    using Clock = std::chrono::steady_clock;
    const std::unique_ptr<PendingFilter> filter = std::move(filter_);
    ExecContext* ctx = filter->ctx;
    const bool timed = !filter->credit.empty();
    int64_t comps = 0;
    int64_t rows = 0;
    Clock::duration filter_wall{};
    Clock::time_point mark = timed ? Clock::now() : Clock::time_point();
    SelectBlocks(*view_.source(), view_.selection(), view_.size(),
                 filter->preds, &comps, [&](const int64_t* ords, int64_t k) {
                   if (timed) filter_wall += Clock::now() - mark;
                   rows += k;
                   sink(ords, k);
                   if (timed) mark = Clock::now();
                 });
    if (timed) filter_wall += Clock::now() - mark;
    const double seconds_before = ctx->clock->Seconds();
    ctx->clock->Comp(comps);
    const double cost = ctx->clock->Seconds() - seconds_before;
    if (ctx->metrics != nullptr) {
      ctx->metrics->Add("exec.filter.rows_in", view_.size());
      ctx->metrics->Add("exec.filter.rows_out", rows);
    }
    for (PlanNodeRunStats* st : filter->credit) {
      st->rows_out = rows;
      st->comparisons += comps;
      st->cost_seconds += cost;
      st->wall_ns +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(filter_wall)
              .count();
    }
    return rows;
  }

  bool owns_ = false;
  Relation owned_;
  std::shared_ptr<const Relation> pin_;
  RowView view_;
  std::unique_ptr<PendingFilter> filter_;
  bool drained_ = false;  ///< a Drive handed the filtered rows on
};

StatusOr<int> FindColumn(const std::vector<ColumnRef>& columns,
                         const ColumnRef& ref) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == ref) return static_cast<int>(i);
  }
  return Status::NotFound("column " + ref.ToString() + " not in plan output");
}

StatusOr<NodeResult> Owned(StatusOr<Relation> rel) {
  if (!rel.ok()) return rel.status();
  return NodeResult::Owned(std::move(rel).value());
}

StatusOr<NodeResult> ExecuteRec(const PlanNode& plan, const Catalog& catalog,
                                ExecContext* ctx, IndexProvider* indexes,
                                PlanRunTrace* trace, CacheRun* reuse);

/// The in-memory hybrid hash join's build (DESIGN.md §15): a hash table
/// over the materialized build side, with the single-partition hybrid's
/// exact charges — one Hash and one Move per build tuple, records inserted
/// in input order. The table owns its records, so a borrowed build is
/// copied here (an owned one is moved).
std::shared_ptr<CachedBuild> BuildTable(NodeResult build, int key,
                                        ExecContext* ctx) {
  const int64_t n = build.view().size();
  ctx->clock->Hash(n);
  ctx->clock->Move(n);
  return std::make_shared<CachedBuild>(std::move(build).Materialize(), key);
}

/// Probes `build`'s table with the probe side's rows in place, a block at
/// a time as a pending filter hands them on, and publishes the join's run;
/// `build_tuples` is 0 when the table was served from the reuse cache.
Relation ProbeBuild(const CachedBuild& build, int64_t build_tuples,
                    NodeResult* probe, int probe_key, ExecContext* ctx) {
  int64_t probe_rows = 0;
  Relation out = exec_internal::ProbeHashTable(
      build.table, build.records.schema(), probe, probe_key, ctx, &probe_rows);
  JoinRunStats st;
  st.output_tuples = out.num_tuples();
  exec_internal::PublishJoinRun(ctx, build_tuples, probe_rows, st);
  return out;
}

StatusOr<NodeResult> ExecuteJoinNode(const PlanNode& plan,
                                     const Catalog& catalog, ExecContext* ctx,
                                     IndexProvider* indexes,
                                     PlanRunTrace* trace, CacheRun* reuse) {
  const PlanNode& bnode =
      plan.build_is_right ? *plan.child_right : *plan.child_left;
  const PlanNode& pnode =
      plan.build_is_right ? *plan.child_left : *plan.child_right;
  const ColumnRef& bcol = plan.build_is_right ? plan.join.right : plan.join.left;
  const ColumnRef& pcol = plan.build_is_right ? plan.join.left : plan.join.right;
  MMDB_ASSIGN_OR_RETURN(int bpos, FindColumn(bnode.output_columns, bcol));
  MMDB_ASSIGN_OR_RETURN(int ppos, FindColumn(pnode.output_columns, pcol));
  const bool hybrid = plan.algorithm == JoinAlgorithm::kHybridHash;
  // CachedBuild hook (DESIGN.md §15): for an in-memory hybrid hash join,
  // the build-side hash table is a pure function of the build subtree's
  // fingerprint and the key column — serve it from the reuse cache and
  // skip the entire build subtree, or install it after a miss when the
  // build subtree was admitted. Only the q >= 1 (no spill) case is cached:
  // a spilling build changes emission order, and its table never fully
  // materializes.
  if (reuse != nullptr && hybrid) {
    const std::string& bfp = reuse->fps.canonical[&bnode];
    if (std::shared_ptr<const CachedBuild> cached =
            reuse->cache->LookupBuild(bfp, bpos)) {
      MMDB_ASSIGN_OR_RETURN(
          NodeResult probe,
          ExecuteRec(pnode, catalog, ctx, indexes, trace, reuse));
      reuse->state[&plan] = CacheState::kBuildHit;
      return NodeResult::Owned(ProbeBuild(*cached, 0, &probe, ppos, ctx));
    }
  }
  // With the cache on, the probe child runs first so that, on a miss, the
  // build window (child subtree + table construction) is one contiguous
  // cost span for admission. Otherwise the children run left to right.
  // Charge totals are order-independent either way.
  const bool probe_first = reuse != nullptr;
  MMDB_ASSIGN_OR_RETURN(
      NodeResult first,
      ExecuteRec(probe_first ? pnode : *plan.child_left, catalog, ctx,
                 indexes, trace, reuse));
  const double build_t0 = ctx->clock->Seconds();
  MMDB_ASSIGN_OR_RETURN(
      NodeResult second,
      ExecuteRec(probe_first ? bnode : *plan.child_right, catalog, ctx,
                 indexes, trace, reuse));
  const bool second_is_build = probe_first || plan.build_is_right;
  NodeResult& build = second_is_build ? second : first;
  NodeResult& probe = second_is_build ? first : second;
  // The build side breaks the pipeline: its rows are counted for the split
  // and copied into the table.
  if (build.pending()) {
    build = NodeResult::Owned(std::move(build).Materialize());
  }
  const HybridSplit split = SolveHybridSplit(
      std::max<int64_t>(1, build.view().NumPages(ctx->page_size())),
      ctx->memory_pages, ctx->fudge);
  if (hybrid && split.q >= 1.0) {
    // The in-memory hybrid: build the table once and probe it; an admitted
    // build subtree then offers the table to the reuse cache.
    const int64_t build_tuples = build.view().size();
    std::shared_ptr<CachedBuild> cb = BuildTable(std::move(build), bpos, ctx);
    const double build_cost = ctx->clock->Seconds() - build_t0;
    Relation out = ProbeBuild(*cb, build_tuples, &probe, ppos, ctx);
    if (reuse != nullptr && reuse->fps.admitted(&bnode)) {
      reuse->cache->InstallBuild(reuse->fps.canonical[&bnode], bpos,
                                 reuse->fps.tables[&bnode], std::move(cb),
                                 build_cost);
    }
    return NodeResult::Owned(std::move(out));
  }
  // A spilling build or another algorithm: ExecuteJoin on materialized
  // inputs.
  Relation build_copy;
  Relation probe_copy;
  const Relation& build_rel = build.Rows(&build_copy);
  const Relation& probe_rel = probe.Rows(&probe_copy);
  JoinSpec spec;
  spec.left_column = bpos;
  spec.right_column = ppos;
  return Owned(ExecuteJoin(plan.algorithm, build_rel, probe_rel, spec, ctx));
}

StatusOr<NodeResult> ExecuteNode(const PlanNode& plan, const Catalog& catalog,
                                 ExecContext* ctx, IndexProvider* indexes,
                                 PlanRunTrace* trace, CacheRun* reuse) {
  switch (plan.kind) {
    case PlanNode::Kind::kScan: {
      MMDB_ASSIGN_OR_RETURN(const TableEntry* entry,
                            catalog.Lookup(plan.table));
      return NodeResult::Borrow(entry->relation);  // tables stay resident
    }
    case PlanNode::Kind::kIndexScan: {
      MMDB_CHECK(!plan.predicates.empty());
      MMDB_ASSIGN_OR_RETURN(const TableEntry* entry,
                            catalog.Lookup(plan.table));
      NodeResult table = NodeResult::Borrow(entry->relation);
      if (indexes != nullptr) {
        // The index's matches, read in place like a Filter's survivors.
        MMDB_ASSIGN_OR_RETURN(
            std::vector<int64_t> ordinals,
            indexes->IndexOrdinals(plan.table, plan.predicates[0],
                                   ctx->clock));
        table.mutable_view()->Select(std::move(ordinals));
        return table;
      }
      // No provider (plan executed standalone): degrade to scan + filter.
      MMDB_ASSIGN_OR_RETURN(
          int idx, entry->relation->schema().ColumnIndex(
                       plan.predicates[0].column));
      std::vector<BoundPredicate> bound;
      bound.emplace_back(plan.predicates[0], entry->relation->schema(), idx);
      table.FilterLater(std::move(bound), ctx);
      return table;
    }
    case PlanNode::Kind::kFilter: {
      MMDB_ASSIGN_OR_RETURN(
          NodeResult child,
          ExecuteRec(*plan.child_left, catalog, ctx, indexes, trace, reuse));
      // A filter over a pending one (never planned) reads its rows
      // collected.
      const RowView& in = child.Collect();
      // Bind each predicate to its source field once.
      std::vector<BoundPredicate> bound;
      bound.reserve(plan.predicates.size());
      for (const Predicate& p : plan.predicates) {
        MMDB_ASSIGN_OR_RETURN(
            int idx, FindColumn(plan.child_left->output_columns,
                                ColumnRef{p.table, p.column}));
        bound.emplace_back(p, in.source()->schema(), in.source_column(idx));
      }
      child.FilterLater(std::move(bound), ctx);
      return child;
    }
    case PlanNode::Kind::kJoin:
      return ExecuteJoinNode(plan, catalog, ctx, indexes, trace, reuse);
    case PlanNode::Kind::kProject: {
      MMDB_ASSIGN_OR_RETURN(
          NodeResult child,
          ExecuteRec(*plan.child_left, catalog, ctx, indexes, trace, reuse));
      std::vector<int> col_indexes;
      col_indexes.reserve(plan.projection.size());
      for (const ColumnRef& ref : plan.projection) {
        MMDB_ASSIGN_OR_RETURN(
            int idx, FindColumn(plan.child_left->output_columns, ref));
        col_indexes.push_back(idx);
      }
      child.mutable_view()->Project(col_indexes);
      return child;
    }
  }
  return Status::Internal("unknown plan node kind");
}

/// Trace-aware recursion step: with no trace this is just ExecuteNode;
/// with a trace it brackets the node (children included — execution is
/// depth-first, so the window spans the whole subtree) with cost-clock,
/// disk and spill-counter snapshots.
StatusOr<NodeResult> ExecuteRec(const PlanNode& plan, const Catalog& catalog,
                                ExecContext* ctx, IndexProvider* indexes,
                                PlanRunTrace* trace, CacheRun* reuse) {
  // Result-cache hook (DESIGN.md §15): any node but a bare table scan may
  // be served wholesale from a materialized result. A hit is served as a
  // pinned borrow of the cached relation, charged one Move per tuple (the
  // only work the warm plan does), and skips the entire subtree. On a miss
  // an admitted node collects its rows, and its inclusive cost-clock
  // window becomes the admission cost; a declined node runs as if the
  // cache were off.
  const bool cacheable =
      reuse != nullptr && plan.kind != PlanNode::Kind::kScan;
  bool install = false;
  std::string fp;
  if (cacheable) {
    fp = reuse->fps.canonical[&plan];
    if (std::shared_ptr<const Relation> hit = reuse->cache->LookupResult(fp)) {
      ctx->clock->Move(hit->num_tuples());
      reuse->state[&plan] = CacheState::kHit;
      if (trace != nullptr) {
        PlanNodeRunStats& st = trace->nodes[&plan];
        st.rows_out = hit->num_tuples();
        st.cache_state = CacheState::kHit;
      }
      const Relation* rel = hit.get();
      return NodeResult::Borrow(rel, std::move(hit));
    }
    install = reuse->fps.admitted(&plan);
    if (!install) reuse->cache->CountBypassed();
    // A build serve below may upgrade either to kBuildHit.
    reuse->state[&plan] = install ? CacheState::kMiss : CacheState::kBypass;
  }
  if (trace == nullptr) {
    if (!install) return ExecuteNode(plan, catalog, ctx, indexes, trace, reuse);
    const double seconds_before = ctx->clock->Seconds();
    StatusOr<NodeResult> out =
        ExecuteNode(plan, catalog, ctx, indexes, trace, reuse);
    if (out.ok()) {
      // The cache sees the node's rows: a pending filter runs in its window.
      out->Collect();
      reuse->cache->InstallResult(fp, reuse->fps.tables[&plan], out->view(),
                                  ctx->clock->Seconds() - seconds_before);
    }
    return out;
  }
  const CostCounters before = ctx->clock->counters();
  const double seconds_before = ctx->clock->Seconds();
  const SimulatedDisk::Stats disk_before = ctx->disk->stats();
  const int64_t spill_bytes_before =
      ctx->metrics != nullptr ? ctx->metrics->Get("exec.spill.bytes") : 0;
  const int64_t spill_parts_before =
      ctx->metrics != nullptr ? ctx->metrics->Get("exec.spill.partitions") : 0;
  const auto wall_before = std::chrono::steady_clock::now();
  StatusOr<NodeResult> out =
      ExecuteNode(plan, catalog, ctx, indexes, trace, reuse);
  if (!out.ok()) return out;
  if (install) out->Collect();
  const auto wall_after = std::chrono::steady_clock::now();
  const CostCounters after = ctx->clock->counters();
  const SimulatedDisk::Stats disk_after = ctx->disk->stats();
  PlanNodeRunStats& st = trace->nodes[&plan];
  // A pending filter's figures are added when its consumer runs it.
  if (out->pending()) out->CreditTo(&st);
  st.rows_out = out->pending() ? 0 : out->view().size();
  st.comparisons = after.comparisons - before.comparisons;
  st.hashes = after.hashes - before.hashes;
  st.page_reads = disk_after.reads - disk_before.reads;
  st.page_writes = disk_after.writes - disk_before.writes;
  if (ctx->metrics != nullptr) {
    st.spill_bytes = ctx->metrics->Get("exec.spill.bytes") - spill_bytes_before;
    st.spill_partitions =
        ctx->metrics->Get("exec.spill.partitions") - spill_parts_before;
  }
  st.cost_seconds = ctx->clock->Seconds() - seconds_before;
  st.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   wall_after - wall_before)
                   .count();
  if (install) {
    reuse->cache->InstallResult(fp, reuse->fps.tables[&plan], out->view(),
                                st.cost_seconds);
  }
  if (reuse != nullptr) {
    auto sit = reuse->state.find(&plan);
    if (sit != reuse->state.end()) st.cache_state = sit->second;
  }
  return out;
}

}  // namespace

StatusOr<Relation> ExecutePlan(const PlanNode& plan, const Catalog& catalog,
                               ExecContext* ctx, IndexProvider* indexes,
                               PlanRunTrace* trace,
                               const AggregateSpec* aggregate,
                               AggStats* agg_stats) {
  CacheRun reuse;
  if (ctx->reuse_cache != nullptr) {
    reuse.cache = ctx->reuse_cache;
    reuse.cache->FingerprintRun(plan, &reuse.fps);
  }
  MMDB_ASSIGN_OR_RETURN(
      NodeResult root,
      ExecuteRec(plan, catalog, ctx, indexes, trace,
                 reuse.cache != nullptr ? &reuse : nullptr));
  // The root is the last pipeline breaker: it aggregates or materializes
  // the rows (a borrowed or narrowed root is copied), a block at a time as
  // a pending filter hands them on, so no view of a table outlives the
  // statement's latch.
  if (aggregate != nullptr) {
    return AggregateRows(&root, *aggregate, ctx, agg_stats);
  }
  return std::move(root).Materialize();
}

std::string RenderAnalyzedPlan(const PlanNode& plan,
                               const PlanRunTrace& trace) {
  return plan.ToString(
      0, [&trace](const PlanNode& node, int indent) -> std::string {
        auto it = trace.nodes.find(&node);
        if (it == trace.nodes.end()) return std::string();
        const PlanNodeRunStats& s = it->second;
        // Self cost/time = this node's inclusive window minus the
        // children's.
        double child_seconds = 0;
        int64_t child_wall_ns = 0;
        for (const PlanNode* child :
             {node.child_left.get(), node.child_right.get()}) {
          if (child == nullptr) continue;
          auto cit = trace.nodes.find(child);
          if (cit != trace.nodes.end()) {
            child_seconds += cit->second.cost_seconds;
            child_wall_ns += cit->second.wall_ns;
          }
        }
        const char* cache_tag = "";
        switch (s.cache_state) {
          case CacheState::kNone: break;
          case CacheState::kHit: cache_tag = " cache=hit"; break;
          case CacheState::kBuildHit: cache_tag = " cache=hit(build)"; break;
          case CacheState::kMiss: cache_tag = " cache=miss"; break;
          case CacheState::kBypass: cache_tag = " cache=bypass"; break;
        }
        char buf[352];
        std::snprintf(
            buf, sizeof(buf),
            "\n%s(actual rows=%lld comps=%lld hashes=%lld reads=%lld "
            "writes=%lld spill=%lldB/%lldp cost=%.3fs self=%.3fs "
            "wall=%.3fms self_wall=%.3fms%s)",
            std::string(static_cast<size_t>(indent) * 2 + 4, ' ').c_str(),
            static_cast<long long>(s.rows_out),
            static_cast<long long>(s.comparisons),
            static_cast<long long>(s.hashes),
            static_cast<long long>(s.page_reads),
            static_cast<long long>(s.page_writes),
            static_cast<long long>(s.spill_bytes),
            static_cast<long long>(s.spill_partitions),
            s.cost_seconds, s.cost_seconds - child_seconds,
            double(s.wall_ns) / 1e6,
            double(s.wall_ns - child_wall_ns) / 1e6, cache_tag);
        return std::string(buf);
      });
}

StatusOr<QueryResult> RunQuery(const Query& query, const Catalog& catalog,
                               const OptimizerOptions& options,
                               ExecContext* ctx, IndexProvider* indexes,
                               PlanRunTrace* trace,
                               const AggregateSpec* aggregate,
                               AggStats* agg_stats) {
  Optimizer optimizer(&catalog, options);
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan,
                        optimizer.Optimize(query));
  MMDB_ASSIGN_OR_RETURN(Relation rel,
                        ExecutePlan(*plan, catalog, ctx, indexes, trace,
                                    aggregate, agg_stats));
  QueryResult result{std::move(rel), trace != nullptr
                                         ? RenderAnalyzedPlan(*plan, *trace)
                                         : plan->ToString()};
  return result;
}

}  // namespace mmdb
