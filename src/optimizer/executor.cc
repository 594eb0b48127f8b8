#include "optimizer/executor.h"

#include <algorithm>
#include <chrono>

#include "cache/reuse_cache.h"
#include "common/check.h"
#include "cost/join_cost.h"
#include "exec/batch.h"
#include "exec/parallel.h"
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

/// Applies a plan node's DOP to the context while the node itself runs
/// (children execute under their own nodes' settings). A node dop of 1
/// leaves the context untouched, so directly-invoked operators keep
/// whatever the caller configured.
class ScopedDop {
 public:
  ScopedDop(ExecContext* ctx, int dop) : ctx_(ctx), saved_(ctx->dop) {
    if (dop > 1) ctx_->dop = dop;
  }
  ~ScopedDop() { ctx_->dop = saved_; }

  ScopedDop(const ScopedDop&) = delete;
  ScopedDop& operator=(const ScopedDop&) = delete;

 private:
  ExecContext* ctx_;
  int saved_;
};

/// One plan node's output inside ExecutePlan (DESIGN.md §14): rows the
/// node owns, or a read-only borrow of a resident catalog table or of a
/// reuse-cache result (`pin_` keeps an evicted cache entry alive). Borrows
/// are safe because SQL reads hold the shared database latch for the whole
/// statement and writers take it exclusively; none outlives the statement,
/// because ExecutePlan materializes its root.
class NodeResult {
 public:
  explicit NodeResult(Relation owned) : owned_(std::move(owned)) {}
  static NodeResult Borrow(const Relation* rel,
                           std::shared_ptr<const Relation> pin = nullptr) {
    NodeResult r{Relation()};
    r.borrowed_ = rel;
    r.pin_ = std::move(pin);
    return r;
  }

  const Relation& rel() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }
  /// The rows as an owned relation: moved out when owned, copied from a
  /// borrow (the only place a borrowed table is copied wholesale).
  Relation Take() && {
    return borrowed_ != nullptr ? *borrowed_ : std::move(owned_);
  }

 private:
  Relation owned_;
  const Relation* borrowed_ = nullptr;
  std::shared_ptr<const Relation> pin_;
};

StatusOr<int> FindColumn(const std::vector<ColumnRef>& columns,
                         const ColumnRef& ref) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == ref) return static_cast<int>(i);
  }
  return Status::NotFound("column " + ref.ToString() + " not in plan output");
}

/// The one filter driver: `in` is only read, in kMorselRows morsels through
/// ParallelFor (inline at DOP 1), and only survivors are copied. Per-morsel
/// survivor buffers concatenate in morsel order, so the output order is the
/// serial loop's at every DOP. The tuple body charges one Comp per
/// predicate evaluated with early exit (most selective first, §4); the
/// vector body (§14) runs the compiled-predicate kernel over column-major
/// batches, where predicate j sees only rows that survived predicates
/// 0..j-1, so its Comp totals and survivors are the tuple body's.
StatusOr<Relation> FilterRows(const Relation& in,
                              const std::vector<Predicate>& preds,
                              const std::vector<int>& col_indexes, bool vector,
                              ExecContext* ctx) {
  const std::vector<Row>& rows = in.rows();
  const std::vector<CompiledPredicate> compiled =
      vector ? CompilePredicates(in.schema(), preds, col_indexes)
             : std::vector<CompiledPredicate>();
  const std::vector<IndexRange> morsels = MorselRanges(in.num_tuples());
  std::vector<std::vector<Row>> kept(morsels.size());
  MMDB_RETURN_IF_ERROR(ParallelFor(
      ctx, static_cast<int64_t>(morsels.size()),
      [&](ExecContext* wctx, int, int64_t m) {
        const IndexRange range = morsels[static_cast<size_t>(m)];
        std::vector<Row>& keep = kept[static_cast<size_t>(m)];
        if (vector) {
          RowBatch batch;
          for (int64_t base = range.begin; base < range.end;
               base += kBatchRows) {
            RowsToBatch(in, base, std::min(range.end, base + kBatchRows),
                        &batch);
            BatchFilter::FilterBatch(compiled, wctx->clock, &batch);
            for (int64_t k = 0; k < batch.ActiveRows(); ++k) {
              keep.push_back(
                  rows[static_cast<size_t>(base + batch.ActiveIndex(k))]);
            }
          }
          return Status::OK();
        }
        for (int64_t r = range.begin; r < range.end; ++r) {
          const Row& row = rows[static_cast<size_t>(r)];
          bool pass = true;
          for (size_t i = 0; i < preds.size(); ++i) {
            wctx->clock->Comp();
            if (!EvalPredicate(preds[i], row, col_indexes[i])) {
              pass = false;
              break;
            }
          }
          if (pass) keep.push_back(row);
        }
        return Status::OK();
      }));
  Relation out(in.schema());
  for (std::vector<Row>& morsel : kept) {
    for (Row& row : morsel) out.Add(std::move(row));
  }
  return out;
}

StatusOr<NodeResult> Owned(StatusOr<Relation> rel) {
  if (!rel.ok()) return rel.status();
  return NodeResult(std::move(rel).value());
}

StatusOr<NodeResult> ExecuteRec(const PlanNode& plan, const Catalog& catalog,
                                ExecContext* ctx, IndexProvider* indexes,
                                PlanRunTrace* trace, CacheRun* reuse);

/// Probes a materialized build table with `probe`, replicating the
/// in-memory hybrid hash join's emission (probe input order, bucket scan
/// order within a key, build rows ++ probe row) and its probe-side charges
/// (one Hash per probe tuple, one Comp per bucket entry or miss) — so a
/// join served from a CachedBuild emits exactly the bytes the uncached
/// plan would, minus the build-side work. The vector flavor mirrors the
/// batch kernel: key hashes for a run of rows compute in one tight pass,
/// then the bucket walks run back to back.
Relation ProbeCachedBuild(const CachedBuild& build, const Relation& probe,
                          int probe_key, bool vector, ExecContext* ctx) {
  Relation out(Schema::Concat(build.schema, probe.schema()));
  const size_t key = static_cast<size_t>(probe_key);
  ctx->clock->Hash(probe.num_tuples());
  if (vector) {
    int64_t comps = 0;
    std::vector<uint64_t> hashes;
    const std::vector<Row>& rows = probe.rows();
    const int64_t n = probe.num_tuples();
    for (int64_t base = 0; base < n; base += kBatchRows) {
      const int64_t take = std::min(kBatchRows, n - base);
      hashes.resize(static_cast<size_t>(take));
      for (int64_t k = 0; k < take; ++k) {
        hashes[static_cast<size_t>(k)] =
            HashValue(rows[static_cast<size_t>(base + k)][key]);
      }
      for (int64_t k = 0; k < take; ++k) {
        const Row& s_row = rows[static_cast<size_t>(base + k)];
        const std::vector<Row>* bucket =
            build.table.FindBucket(hashes[static_cast<size_t>(k)]);
        if (bucket == nullptr) {
          ++comps;  // the miss still compares
          continue;
        }
        for (const Row& r_row : *bucket) {
          ++comps;
          if (ValuesEqual(r_row[static_cast<size_t>(build.key_column)],
                          s_row[key])) {
            exec_internal::EmitJoined(r_row, s_row, &out);
          }
        }
      }
    }
    ctx->clock->Comp(comps);
    return out;
  }
  for (const Row& row : probe.rows()) {
    build.table.ProbeWith(ctx->clock, row[key], [&](const Row& r_row) {
      exec_internal::EmitJoined(r_row, row, &out);
    });
  }
  return out;
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
      return Owned(FilterRows(*entry->relation, {plan.predicates[0]}, {idx},
                              /*vector=*/false, ctx));
    }
    case PlanNode::Kind::kFilter: {
      MMDB_ASSIGN_OR_RETURN(
          NodeResult child,
          ExecuteRec(*plan.child_left, catalog, ctx, indexes, trace, reuse));
      const Relation& in = child.rel();
      // Resolve each predicate once.
      std::vector<int> col_indexes;
      col_indexes.reserve(plan.predicates.size());
      for (const Predicate& p : plan.predicates) {
        MMDB_ASSIGN_OR_RETURN(
            int idx, FindColumn(plan.child_left->output_columns,
                                ColumnRef{p.table, p.column}));
        col_indexes.push_back(idx);
      }
      ScopedDop sd(ctx, plan.dop);
      const bool timing = ctx->metrics != nullptr && ctx->collect_wall_ns;
      const auto t0 = timing ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point();
      MMDB_ASSIGN_OR_RETURN(
          Relation out,
          FilterRows(in, plan.predicates, col_indexes, plan.vector, ctx));
      if (ctx->metrics != nullptr) {
        ctx->metrics->Add("exec.filter.rows_in", in.num_tuples());
        ctx->metrics->Add("exec.filter.rows_out", out.num_tuples());
        if (timing) {
          ctx->metrics->Add(
              "exec.filter.wall_ns",
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        }
      }
      return NodeResult(std::move(out));
    }
    case PlanNode::Kind::kJoin: {
      // CachedBuild hook (DESIGN.md §15): for an in-memory hybrid hash
      // join, the build-side hash table is a pure function of the build
      // subtree's fingerprint and the key column — serve it from the reuse
      // cache and skip the entire build subtree, or install it after a
      // miss. Only the q >= 1 (no spill) case is cached: a spilling build
      // changes emission order, and its table never fully materializes.
      if (reuse != nullptr && plan.algorithm == JoinAlgorithm::kHybridHash) {
        const PlanNode& bnode =
            plan.build_is_right ? *plan.child_right : *plan.child_left;
        const PlanNode& pnode =
            plan.build_is_right ? *plan.child_left : *plan.child_right;
        const ColumnRef& bcol =
            plan.build_is_right ? plan.join.right : plan.join.left;
        const ColumnRef& pcol =
            plan.build_is_right ? plan.join.left : plan.join.right;
        MMDB_ASSIGN_OR_RETURN(int bpos,
                              FindColumn(bnode.output_columns, bcol));
        MMDB_ASSIGN_OR_RETURN(int ppos,
                              FindColumn(pnode.output_columns, pcol));
        const std::string& bfp = reuse->fps.canonical[&bnode];
        if (std::shared_ptr<const CachedBuild> cached =
                reuse->cache->LookupBuild(bfp, bpos)) {
          MMDB_ASSIGN_OR_RETURN(
              NodeResult probe,
              ExecuteRec(pnode, catalog, ctx, indexes, trace, reuse));
          reuse->state[&plan] = 2;
          ScopedDop sd(ctx, plan.dop);
          return NodeResult(ProbeCachedBuild(*cached, probe.rel(), ppos,
                                             plan.vector, ctx));
        }
        // Miss. Execute the probe child first so the build window (child
        // subtree + table construction) is one contiguous cost span for
        // admission; charge totals are order-independent.
        MMDB_ASSIGN_OR_RETURN(
            NodeResult probe_result,
            ExecuteRec(pnode, catalog, ctx, indexes, trace, reuse));
        const double build_t0 = ctx->clock->Seconds();
        MMDB_ASSIGN_OR_RETURN(
            NodeResult build_result,
            ExecuteRec(bnode, catalog, ctx, indexes, trace, reuse));
        const Relation& probe = probe_result.rel();
        const Relation& build = build_result.rel();
        ScopedDop sd(ctx, plan.dop);
        const int64_t r_pages =
            std::max<int64_t>(1, build.NumPages(ctx->page_size()));
        const HybridSplit split =
            SolveHybridSplit(r_pages, ctx->memory_pages, ctx->fudge);
        if (split.q >= 1.0) {
          // In-memory: construct the table once with the hybrid's exact
          // single-partition charges (one Hash + one Move per build
          // tuple, rows inserted in input order), probe, then admit. The
          // table owns its rows, so a borrowed build input is copied here.
          auto cb = std::make_shared<CachedBuild>(bpos, build.schema());
          ctx->clock->Hash(build.num_tuples());
          ctx->clock->Move(build.num_tuples());
          Relation rows = std::move(build_result).Take();
          for (Row& row : rows.mutable_rows()) {
            cb->table.Insert(std::move(row));
          }
          cb->rows = cb->table.size();
          const double build_cost = ctx->clock->Seconds() - build_t0;
          Relation out = ProbeCachedBuild(*cb, probe, ppos, plan.vector, ctx);
          reuse->cache->InstallBuild(bfp, bpos, reuse->fps.tables[&bnode],
                                     std::move(cb), build_cost);
          return NodeResult(std::move(out));
        }
        // Spilling build: fall through to the ordinary hybrid join.
        JoinSpec spec;
        spec.left_column = bpos;
        spec.right_column = ppos;
        if (plan.vector) return Owned(VectorHashJoin(build, probe, spec, ctx));
        return Owned(ExecuteJoin(plan.algorithm, build, probe, spec, ctx));
      }
      MMDB_ASSIGN_OR_RETURN(
          NodeResult left_result,
          ExecuteRec(*plan.child_left, catalog, ctx, indexes, trace, reuse));
      MMDB_ASSIGN_OR_RETURN(
          NodeResult right_result,
          ExecuteRec(*plan.child_right, catalog, ctx, indexes, trace, reuse));
      const Relation& left = left_result.rel();
      const Relation& right = right_result.rel();
      MMDB_ASSIGN_OR_RETURN(
          int left_idx,
          FindColumn(plan.child_left->output_columns, plan.join.left));
      MMDB_ASSIGN_OR_RETURN(
          int right_idx,
          FindColumn(plan.child_right->output_columns, plan.join.right));
      const Relation& build = plan.build_is_right ? right : left;
      const Relation& probe = plan.build_is_right ? left : right;
      JoinSpec spec;
      spec.left_column = plan.build_is_right ? right_idx : left_idx;
      spec.right_column = plan.build_is_right ? left_idx : right_idx;
      ScopedDop sd(ctx, plan.dop);
      if (plan.vector && plan.algorithm == JoinAlgorithm::kHybridHash) {
        // Vectorized probe; delegates back to the row-major hybrid when the
        // build spills or the node runs parallel, so bytes and charges
        // match tuple execution unconditionally.
        return Owned(VectorHashJoin(build, probe, spec, ctx));
      }
      return Owned(ExecuteJoin(plan.algorithm, build, probe, spec, ctx));
    }
    case PlanNode::Kind::kProject: {
      MMDB_ASSIGN_OR_RETURN(
          NodeResult child,
          ExecuteRec(*plan.child_left, catalog, ctx, indexes, trace, reuse));
      const Relation& in = child.rel();
      std::vector<int> col_indexes;
      col_indexes.reserve(plan.projection.size());
      for (const ColumnRef& ref : plan.projection) {
        MMDB_ASSIGN_OR_RETURN(
            int idx, FindColumn(plan.child_left->output_columns, ref));
        col_indexes.push_back(idx);
      }
      Relation out(in.schema().Select(col_indexes));
      for (const Row& row : in.rows()) {
        Row projected;
        projected.reserve(col_indexes.size());
        for (int idx : col_indexes) {
          projected.push_back(row[static_cast<size_t>(idx)]);
        }
        out.Add(std::move(projected));
      }
      return NodeResult(std::move(out));
    }
  }
  return Status::Internal("unknown plan node kind");
}

/// Trace-aware recursion step: with no trace this is just ExecuteNode;
/// with a trace it brackets the node (children included — execution is
/// depth-first, so the window spans the whole subtree) with cost-clock,
/// disk and spill-counter snapshots. All snapshot reads happen at serial
/// points: any parallel region inside the node has completed and merged
/// its worker clocks/shards before the node returns.
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
      reuse->cache->InstallResult(fp, reuse->fps.tables[&plan], out->rel(),
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
  st.rows_out = out->rel().num_tuples();
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
  if (cacheable) {
    reuse->cache->InstallResult(fp, reuse->fps.tables[&plan], out->rel(),
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
                               PlanRunTrace* trace) {
  CacheRun reuse;
  if (ctx->reuse_cache != nullptr) {
    reuse.cache = ctx->reuse_cache;
    reuse.cache->FingerprintPlan(plan, &reuse.fps);
  }
  // The root always materializes: a bare scan or a cache hit at the root
  // is copied out, so no borrow outlives the statement's latch.
  MMDB_ASSIGN_OR_RETURN(
      NodeResult root,
      ExecuteRec(plan, catalog, ctx, indexes, trace,
                 reuse.cache != nullptr ? &reuse : nullptr));
  return std::move(root).Take();
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
                               PlanRunTrace* trace) {
  Optimizer optimizer(&catalog, options);
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan,
                        optimizer.Optimize(query));
  MMDB_ASSIGN_OR_RETURN(Relation rel,
                        ExecutePlan(*plan, catalog, ctx, indexes, trace));
  QueryResult result{std::move(rel), trace != nullptr
                                         ? RenderAnalyzedPlan(*plan, *trace)
                                         : plan->ToString()};
  return result;
}

}  // namespace mmdb
