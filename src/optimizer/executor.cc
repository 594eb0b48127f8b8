#include "optimizer/executor.h"

#include <algorithm>
#include <chrono>

#include "cache/reuse_cache.h"
#include "common/check.h"
#include "cost/join_cost.h"
#include "exec/aggregate.h"
#include "optimizer/optimizer.h"

namespace mmdb {

namespace {

/// Per-run reuse-cache state: the plan's fingerprints (computed once up
/// front) and each node's cache outcome, copied into the trace at the end.
struct CacheRun {
  ReuseCache* cache = nullptr;
  ReuseCache::Fingerprints fps;
  std::map<const PlanNode*, int> state;
};

/// One plan node's output inside ExecutePlan (DESIGN.md §14): a RowView
/// plus whatever keeps its source alive — rows the node owns, a resident
/// catalog table (nothing to hold), or a pinned reuse-cache result (`pin_`
/// keeps an evicted entry alive). Filter narrows the view's selection and
/// Project its column map; both hand the holder on unchanged. Row pointers
/// into catalog tables are safe because SQL reads hold the shared database
/// latch for the whole statement and writers take it exclusively; none
/// outlives the statement, because ExecutePlan materializes (or
/// aggregates) its root.
class NodeResult {
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

  // Moving an owner keeps its view valid: the rows' buffer moves with the
  // relation, so selected row pointers still address it, and only the
  // view's source follows the relation to its new address.
  NodeResult(NodeResult&& other) noexcept { *this = std::move(other); }
  NodeResult& operator=(NodeResult&& other) noexcept {
    owns_ = other.owns_;
    owned_ = std::move(other.owned_);
    pin_ = std::move(other.pin_);
    view_ = std::move(other.view_);
    if (owns_) view_.set_source(&owned_);
    return *this;
  }

  const RowView& view() const { return view_; }
  RowView* mutable_view() { return &view_; }

  /// The rows as an owned relation: moved out when the node owns exactly
  /// the rows its view shows, copied otherwise.
  Relation Materialize() && {
    if (owns_ && view_.identity()) return std::move(owned_);
    return std::move(view_).Materialize();
  }
  /// The rows as a relation for the row-major join kernels: the view's
  /// source when the view is all of it, else a copy kept in `*copy`.
  const Relation& Rows(Relation* copy) const {
    if (view_.identity()) return *view_.source();
    *copy = view_.Materialize();
    return *copy;
  }

 private:
  NodeResult() = default;

  bool owns_ = false;
  Relation owned_;
  std::shared_ptr<const Relation> pin_;
  RowView view_;
};

StatusOr<int> FindColumn(const std::vector<ColumnRef>& columns,
                         const ColumnRef& ref) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == ref) return static_cast<int>(i);
  }
  return Status::NotFound("column " + ref.ToString() + " not in plan output");
}

/// The one filter driver: `in` is only read, and the result is the
/// survivors' selection in input order — pointers to `in`'s source rows;
/// nothing is copied. Each row is charged one Comp per predicate evaluated
/// with early exit (most selective first, §4); the loop tallies its Comps
/// and charges them once. The predicates are bound to source columns once,
/// before the loop; `col_indexes` are view columns.
std::vector<const Row*> FilterRows(const RowView& in,
                                   const std::vector<Predicate>& preds,
                                   const std::vector<int>& col_indexes,
                                   ExecContext* ctx) {
  std::vector<BoundPredicate> bound;
  bound.reserve(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    bound.emplace_back(preds[i], in.source_column(col_indexes[i]));
  }
  std::vector<const Row*> keep;
  int64_t comps = 0;
  for (int64_t r = 0; r < in.size(); ++r) {
    const Row& row = in.row(r);
    bool pass = true;
    for (const BoundPredicate& pred : bound) {
      ++comps;
      if (!pred.Matches(row)) {
        pass = false;
        break;
      }
    }
    if (pass) keep.push_back(&row);
  }
  ctx->clock->Comp(comps);
  return keep;
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
/// exact charges — one Hash and one Move per build tuple, rows inserted in
/// input order. The table owns its rows, so a borrowed build is copied
/// here (an owned one is moved).
std::shared_ptr<CachedBuild> BuildTable(NodeResult build, int key,
                                        ExecContext* ctx) {
  auto cb = std::make_shared<CachedBuild>(key, build.view().schema());
  const int64_t n = build.view().size();
  ctx->clock->Hash(n);
  ctx->clock->Move(n);
  Relation rows = std::move(build).Materialize();
  for (Row& row : rows.mutable_rows()) cb->table.Insert(std::move(row));
  cb->rows = cb->table.size();
  return cb;
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
  // skip the entire build subtree, or install it after a miss. Only the
  // q >= 1 (no spill) case is cached: a spilling build changes emission
  // order, and its table never fully materializes.
  if (reuse != nullptr && hybrid) {
    const std::string& bfp = reuse->fps.canonical[&bnode];
    if (std::shared_ptr<const CachedBuild> cached =
            reuse->cache->LookupBuild(bfp, bpos)) {
      MMDB_ASSIGN_OR_RETURN(
          NodeResult probe,
          ExecuteRec(pnode, catalog, ctx, indexes, trace, reuse));
      reuse->state[&plan] = 2;
      return NodeResult::Owned(exec_internal::ProbeHashTable(
          cached->table, cached->schema, probe.view(), ppos, ctx));
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
  const HybridSplit split = SolveHybridSplit(
      std::max<int64_t>(1, build.view().NumPages(ctx->page_size())),
      ctx->memory_pages, ctx->fudge);
  if (hybrid && split.q >= 1.0) {
    // The in-memory hybrid: build the table once, probe the probe view in
    // place; a cache miss then offers the table for admission.
    const int64_t build_tuples = build.view().size();
    std::shared_ptr<CachedBuild> cb = BuildTable(std::move(build), bpos, ctx);
    const double build_cost = ctx->clock->Seconds() - build_t0;
    Relation out = exec_internal::ProbeHashTable(cb->table, cb->schema,
                                                 probe.view(), ppos, ctx);
    if (reuse != nullptr) {
      reuse->cache->InstallBuild(reuse->fps.canonical[&bnode], bpos,
                                 reuse->fps.tables[&bnode], std::move(cb),
                                 build_cost);
    } else {
      JoinRunStats st;
      st.output_tuples = out.num_tuples();
      exec_internal::PublishJoinRun(ctx, build_tuples, probe.view().size(), st);
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
      if (indexes != nullptr) {
        return Owned(
            indexes->IndexLookupAll(plan.table, plan.predicates[0], ctx));
      }
      // No provider (plan executed standalone): degrade to scan + filter.
      MMDB_ASSIGN_OR_RETURN(const TableEntry* entry,
                            catalog.Lookup(plan.table));
      MMDB_ASSIGN_OR_RETURN(
          int idx, entry->relation->schema().ColumnIndex(
                       plan.predicates[0].column));
      NodeResult table = NodeResult::Borrow(entry->relation);
      table.mutable_view()->Select(
          FilterRows(table.view(), {plan.predicates[0]}, {idx}, ctx));
      return table;
    }
    case PlanNode::Kind::kFilter: {
      MMDB_ASSIGN_OR_RETURN(
          NodeResult child,
          ExecuteRec(*plan.child_left, catalog, ctx, indexes, trace, reuse));
      // Resolve each predicate once.
      std::vector<int> col_indexes;
      col_indexes.reserve(plan.predicates.size());
      for (const Predicate& p : plan.predicates) {
        MMDB_ASSIGN_OR_RETURN(
            int idx, FindColumn(plan.child_left->output_columns,
                                ColumnRef{p.table, p.column}));
        col_indexes.push_back(idx);
      }
      const int64_t rows_in = child.view().size();
      std::vector<const Row*> survivors =
          FilterRows(child.view(), plan.predicates, col_indexes, ctx);
      const int64_t rows_out = static_cast<int64_t>(survivors.size());
      child.mutable_view()->Select(std::move(survivors));
      if (ctx->metrics != nullptr) {
        ctx->metrics->Add("exec.filter.rows_in", rows_in);
        ctx->metrics->Add("exec.filter.rows_out", rows_out);
      }
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

/// Offers a node's result to the reuse cache. The view's byte count is
/// taken only when the cost floor has not refused it, and the view is
/// materialized only when the size caps have not either.
void OfferResult(CacheRun& reuse, const std::string& fp,
                 const PlanNode& plan, const RowView& view,
                 double cost_seconds) {
  reuse.cache->InstallResult(
      fp, reuse.fps.tables[&plan], cost_seconds,
      [&view] { return ReuseCache::MinViewBytes(view); },
      [&view] { return view.Materialize(); });
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
  // only work the warm plan does), and skips the entire subtree; a miss
  // executes normally, and the node's inclusive cost-clock window becomes
  // the admission cost.
  const bool cacheable =
      reuse != nullptr && plan.kind != PlanNode::Kind::kScan;
  std::string fp;
  if (cacheable) {
    fp = reuse->fps.canonical[&plan];
    if (std::shared_ptr<const Relation> hit = reuse->cache->LookupResult(fp)) {
      ctx->clock->Move(hit->num_tuples());
      reuse->state[&plan] = 1;
      if (trace != nullptr) {
        PlanNodeRunStats& st = trace->nodes[&plan];
        st.rows_out = hit->num_tuples();
        st.cache_state = 1;
      }
      const Relation* rel = hit.get();
      return NodeResult::Borrow(rel, std::move(hit));
    }
    reuse->state[&plan] = 3;  // a build serve below may upgrade this to 2
  }
  if (trace == nullptr) {
    if (!cacheable) return ExecuteNode(plan, catalog, ctx, indexes, trace, reuse);
    const double seconds_before = ctx->clock->Seconds();
    StatusOr<NodeResult> out =
        ExecuteNode(plan, catalog, ctx, indexes, trace, reuse);
    if (out.ok()) {
      OfferResult(*reuse, fp, plan, out->view(),
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
  const auto wall_after = std::chrono::steady_clock::now();
  const CostCounters after = ctx->clock->counters();
  const SimulatedDisk::Stats disk_after = ctx->disk->stats();
  PlanNodeRunStats& st = trace->nodes[&plan];
  st.rows_out = out->view().size();
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
  if (cacheable) OfferResult(*reuse, fp, plan, out->view(), st.cost_seconds);
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
    reuse.cache->FingerprintPlan(plan, &reuse.fps);
  }
  MMDB_ASSIGN_OR_RETURN(
      NodeResult root,
      ExecuteRec(plan, catalog, ctx, indexes, trace,
                 reuse.cache != nullptr ? &reuse : nullptr));
  // The root is the last pipeline breaker: it aggregates straight from
  // the view, or materializes (a borrowed or narrowed root is copied), so
  // no row pointer outlives the statement's latch.
  if (aggregate != nullptr) {
    return AggregateView(root.view(), *aggregate, ctx, agg_stats);
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
          case 1: cache_tag = " cache=hit"; break;
          case 2: cache_tag = " cache=hit(build)"; break;
          case 3: cache_tag = " cache=miss"; break;
          default: break;
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
