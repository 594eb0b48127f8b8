#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>

#include "cache/reuse_cache.h"
#include "common/check.h"

namespace mmdb {

namespace {

/// Planner-side description of one DP state (a set of joined tables).
struct SubPlan {
  std::unique_ptr<PlanNode> node;
  double est_tuples = 0;
  double est_pages = 0;
  double cost_seconds = 0;  // cumulative weighted cost
};

double WeightedSeconds(const JoinCostBreakdown& c, double w_cpu) {
  return w_cpu * c.cpu_seconds + c.io_seconds;
}

}  // namespace

Optimizer::AlgorithmChoice Optimizer::ChooseJoinAlgorithm(
    double build_pages, double build_tuples, double probe_pages,
    double probe_tuples) const {
  JoinWorkload w;
  w.r_pages = std::max<int64_t>(1, static_cast<int64_t>(build_pages));
  w.s_pages = std::max<int64_t>(1, static_cast<int64_t>(probe_pages));
  w.r_tuples = std::max<int64_t>(1, static_cast<int64_t>(build_tuples));
  w.s_tuples = std::max<int64_t>(1, static_cast<int64_t>(probe_tuples));
  w.memory_pages = options_.memory_pages;

  const AllJoinCosts costs = ComputeAllJoinCosts(w, options_.cost_params);
  AlgorithmChoice best{JoinAlgorithm::kHybridHash,
                       WeightedSeconds(costs.hybrid_hash, options_.w_cpu)};
  if (options_.hash_only) return best;

  const std::pair<JoinAlgorithm, const JoinCostBreakdown*> candidates[] = {
      {JoinAlgorithm::kSortMerge, &costs.sort_merge},
      {JoinAlgorithm::kSimpleHash, &costs.simple_hash},
      {JoinAlgorithm::kGraceHash, &costs.grace_hash},
  };
  for (const auto& [alg, c] : candidates) {
    const double w_cost = WeightedSeconds(*c, options_.w_cpu);
    // Strict improvement beyond float noise: exact ties (the in-memory
    // case, where all three hash algorithms degenerate to the same plan)
    // keep the hybrid default.
    if (w_cost < best.weighted_cost_seconds * (1.0 - 1e-9)) {
      best = AlgorithmChoice{alg, w_cost};
    }
  }
  return best;
}

StatusOr<std::unique_ptr<PlanNode>> Optimizer::Optimize(
    const Query& query) const {
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  if (query.tables.size() > 20) {
    return Status::InvalidArgument("too many tables for exhaustive DP");
  }

  const int n = static_cast<int>(query.tables.size());
  const CostParams& cp = options_.cost_params;

  // ---- Base table sub-plans: Scan (+ Filter with §4 selectivity order).
  std::vector<SubPlan> base(static_cast<size_t>(n));
  std::vector<const TableEntry*> entries(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string& name = query.tables[static_cast<size_t>(i)];
    MMDB_ASSIGN_OR_RETURN(const TableEntry* entry, catalog_->Lookup(name));
    entries[static_cast<size_t>(i)] = entry;

    auto scan = std::make_unique<PlanNode>();
    scan->kind = PlanNode::Kind::kScan;
    scan->table = name;
    for (const Column& col : entry->relation->schema().columns()) {
      scan->output_columns.push_back(ColumnRef{name, col.name});
    }
    scan->est_tuples = double(entry->stats.num_tuples);
    scan->est_pages = double(entry->stats.num_pages);

    // Gather this table's restrictions; order most selective first (§4).
    std::vector<std::pair<double, Predicate>> preds;
    for (const Predicate& p : query.filters) {
      if (p.table != name) continue;
      MMDB_RETURN_IF_ERROR(
          catalog_->ResolveColumn(p.table, p.column).status());
      preds.emplace_back(EstimateSelectivity(p, *entry), p);
    }
    std::stable_sort(preds.begin(), preds.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    SubPlan& sp = base[static_cast<size_t>(i)];
    sp.est_tuples = double(entry->stats.num_tuples);
    if (preds.empty()) {
      sp.est_pages = double(entry->stats.num_pages);
      sp.node = std::move(scan);
      continue;
    }

    // Access-path choice (§2 meets §4): can the most selective INDEXABLE
    // restriction be served by an index instead of a full scan?
    //   servable: equality on any index; prefix on an ordered index.
    int index_pred = -1;
    const IndexInfo* index_info = nullptr;
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      const Predicate& p = preds[pi].second;
      const IndexInfo* info = catalog_->FindIndex(name, p.column);
      if (info == nullptr) continue;
      const bool servable =
          p.op == CmpOp::kEq ||
          (p.op == CmpOp::kPrefix && info->kind != IndexKind::kHash);
      if (servable) {
        index_pred = static_cast<int>(pi);
        index_info = info;
        break;  // preds are selectivity-sorted: first hit is best
      }
    }

    const double n_tuples = double(entry->stats.num_tuples);
    double sel = 1.0;
    for (const auto& [s, p] : preds) sel *= s;

    // Full-scan cost: every predicate evaluated on every tuple (early exit
    // ignored — a conservative upper bound on comparisons).
    const double scan_cost_s = options_.w_cpu * n_tuples *
                               double(preds.size()) * cp.comp_us * 1e-6;
    // Index cost: a log2(n) descent (hash: ~1 probe) plus one comparison
    // per match for each residual predicate.
    double index_cost_s = 0;
    if (index_pred >= 0) {
      const double matches =
          std::max(1.0, n_tuples * preds[size_t(index_pred)].first);
      const double descent =
          index_info->kind == IndexKind::kHash
              ? 1.0 + matches
              : std::log2(std::max(2.0, n_tuples)) + matches;
      index_cost_s = options_.w_cpu *
                     (descent + matches * double(preds.size() - 1)) *
                     cp.comp_us * 1e-6;
    }

    if (index_pred >= 0 && index_cost_s < scan_cost_s) {
      auto index_scan = std::make_unique<PlanNode>();
      index_scan->kind = PlanNode::Kind::kIndexScan;
      index_scan->table = name;
      index_scan->index_kind = index_info->kind;
      index_scan->predicates.push_back(preds[size_t(index_pred)].second);
      index_scan->output_columns = scan->output_columns;
      index_scan->est_tuples =
          std::max(1.0, n_tuples * preds[size_t(index_pred)].first);
      index_scan->est_pages = std::max(
          1.0, double(entry->stats.num_pages) *
                   preds[size_t(index_pred)].first);
      index_scan->est_cost_seconds = index_cost_s;
      preds.erase(preds.begin() + index_pred);
      std::unique_ptr<PlanNode> node = std::move(index_scan);
      if (!preds.empty()) {
        auto filter = std::make_unique<PlanNode>();
        filter->kind = PlanNode::Kind::kFilter;
        for (auto& [s, p] : preds) filter->predicates.push_back(std::move(p));
        filter->output_columns = node->output_columns;
        filter->est_tuples = std::max(1.0, n_tuples * sel);
        filter->est_pages =
            std::max(1.0, double(entry->stats.num_pages) * sel);
        filter->est_cost_seconds = index_cost_s;
        filter->child_left = std::move(node);
        node = std::move(filter);
      }
      sp.cost_seconds = index_cost_s;
      sp.est_tuples = std::max(1.0, n_tuples * sel);
      sp.est_pages = std::max(1.0, double(entry->stats.num_pages) * sel);
      sp.node = std::move(node);
      continue;
    }

    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanNode::Kind::kFilter;
    for (auto& [s, p] : preds) {
      filter->predicates.push_back(std::move(p));
    }
    filter->output_columns = scan->output_columns;
    filter->child_left = std::move(scan);
    filter->est_tuples = std::max(1.0, filter->child_left->est_tuples * sel);
    filter->est_pages = std::max(1.0, filter->child_left->est_pages * sel);
    filter->est_cost_seconds = scan_cost_s;
    sp.cost_seconds = scan_cost_s;
    sp.est_tuples = filter->est_tuples;
    sp.est_pages = filter->est_pages;
    sp.node = std::move(filter);
  }

  if (n == 1 && !query.joins.empty()) {
    return Status::InvalidArgument("join clause with a single table");
  }

  // ---- Resolve join clauses to table indexes.
  auto table_index = [&](const std::string& t) -> int {
    for (int i = 0; i < n; ++i) {
      if (query.tables[static_cast<size_t>(i)] == t) return i;
    }
    return -1;
  };
  struct Edge {
    int a;
    int b;
    JoinClause clause;
    double distinct_a;
    double distinct_b;
  };
  std::vector<Edge> edges;
  for (const JoinClause& jc : query.joins) {
    Edge e;
    e.a = table_index(jc.left.table);
    e.b = table_index(jc.right.table);
    if (e.a < 0 || e.b < 0) {
      return Status::InvalidArgument("join references unknown table");
    }
    MMDB_ASSIGN_OR_RETURN(
        int ca, catalog_->ResolveColumn(jc.left.table, jc.left.column));
    MMDB_ASSIGN_OR_RETURN(
        int cb, catalog_->ResolveColumn(jc.right.table, jc.right.column));
    e.clause = jc;
    e.distinct_a = double(std::max<int64_t>(
        1,
        entries[static_cast<size_t>(e.a)]->stats.columns[size_t(ca)].num_distinct));
    e.distinct_b = double(std::max<int64_t>(
        1,
        entries[static_cast<size_t>(e.b)]->stats.columns[size_t(cb)].num_distinct));
    edges.push_back(std::move(e));
  }

  // ---- DP over connected subsets, left-deep (no interesting orders: §4).
  std::map<uint32_t, SubPlan> dp;
  for (int i = 0; i < n; ++i) {
    dp[1u << i] = std::move(base[static_cast<size_t>(i)]);
  }

  // ---- Reuse-cache costing (DESIGN.md §15): fingerprint each DP state
  // with the cache's canonical grammar so candidates whose sub-results or
  // build tables are already materialized can be priced at their serve
  // cost instead of their production cost. Base states fingerprint their
  // finished subtrees directly; join states compose via CanonJoin, which
  // stays in lockstep with FingerprintPlan on the final tree.
  const ReuseCache* cache = options_.reuse_cache;
  const bool discounts = cache != nullptr && options_.reuse_cost_discounts;
  std::map<uint32_t, std::string> mask_fp;
  std::map<uint32_t, std::vector<ColumnRef>> mask_cols;
  if (cache != nullptr) {
    for (int i = 0; i < n; ++i) {
      const uint32_t bit = 1u << i;
      SubPlan& sp = dp[bit];
      ReuseCache::Fingerprints fps;
      cache->FingerprintPlan(*sp.node, &fps);
      mask_fp[bit] = fps.canonical[sp.node.get()];
      mask_cols[bit] = sp.node->output_columns;
      if (discounts && cache->HasResult(mask_fp[bit])) {
        // Serving a materialized base result: one Move per tuple.
        sp.cost_seconds =
            std::min(sp.cost_seconds,
                     options_.w_cpu * sp.est_tuples * cp.move_us * 1e-6);
      }
    }
  }

  for (int size = 2; size <= n; ++size) {
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      if (__builtin_popcount(mask) != size) continue;
      SubPlan best;
      std::string best_fp;
      bool found = false;
      // Left-deep: extend a (size-1)-subset with one base table.
      for (int t = 0; t < n; ++t) {
        const uint32_t bit = 1u << t;
        if (!(mask & bit)) continue;
        const uint32_t rest = mask ^ bit;
        auto rest_it = dp.find(rest);
        if (rest_it == dp.end() || rest_it->second.node == nullptr) continue;
        auto right_it = dp.find(bit);
        MMDB_CHECK(right_it != dp.end());

        // Find a connecting edge (rest side <-> t).
        const Edge* edge = nullptr;
        bool left_is_rest = true;
        for (const Edge& e : edges) {
          if ((rest & (1u << e.a)) && e.b == t) {
            edge = &e;
            left_is_rest = true;
            break;
          }
          if ((rest & (1u << e.b)) && e.a == t) {
            edge = &e;
            left_is_rest = false;
            break;
          }
        }
        if (edge == nullptr) continue;  // no cartesian products

        const SubPlan& left = rest_it->second;
        const SubPlan& right = right_it->second;

        // Output estimate: |A||B| / max(d_a, d_b), capped by the product.
        const double d = std::max(edge->distinct_a, edge->distinct_b);
        const double out_tuples = std::max(
            1.0, left.est_tuples * right.est_tuples / std::max(1.0, d));

        // Build = smaller estimated side.
        const bool right_builds = right.est_pages <= left.est_pages;
        const double build_pages =
            right_builds ? right.est_pages : left.est_pages;
        const double probe_pages =
            right_builds ? left.est_pages : right.est_pages;
        const double build_tuples =
            right_builds ? right.est_tuples : left.est_tuples;
        const double probe_tuples =
            right_builds ? left.est_tuples : right.est_tuples;
        const AlgorithmChoice choice = ChooseJoinAlgorithm(
            build_pages, build_tuples, probe_pages, probe_tuples);

        double child_cost = left.cost_seconds + right.cost_seconds;
        double join_cost = choice.weighted_cost_seconds;
        std::string cand_fp;
        if (cache != nullptr) {
          const ColumnRef rest_col =
              left_is_rest ? edge->clause.left : edge->clause.right;
          const ColumnRef bit_col =
              left_is_rest ? edge->clause.right : edge->clause.left;
          // Candidate children: left = rest subset, right = table t (bit).
          const std::string& bfp = right_builds ? mask_fp[bit] : mask_fp[rest];
          const std::string& pfp = right_builds ? mask_fp[rest] : mask_fp[bit];
          const int bpos = ReuseCache::ResolvePos(
              right_builds ? mask_cols[bit] : mask_cols[rest],
              right_builds ? bit_col : rest_col);
          const int ppos = ReuseCache::ResolvePos(
              right_builds ? mask_cols[rest] : mask_cols[bit],
              right_builds ? rest_col : bit_col);
          cand_fp = cache->CanonJoin(choice.algorithm, bfp, pfp, bpos, ppos);
          if (discounts && cache->HasResult(cand_fp)) {
            // The whole join result is materialized: serving it is one
            // Move per output tuple, and neither child runs at all.
            child_cost = 0;
            join_cost = options_.w_cpu * out_tuples * cp.move_us * 1e-6;
          } else if (discounts &&
                     choice.algorithm == JoinAlgorithm::kHybridHash &&
                     cache->HasBuild(bfp, bpos)) {
            // The build-side hash table is materialized: the build subtree
            // never runs, and the join reduces to the probe pass (one hash
            // and F chained comparisons per probe tuple).
            child_cost =
                right_builds ? left.cost_seconds : right.cost_seconds;
            join_cost = options_.w_cpu * probe_tuples *
                        (cp.hash_us + cp.fudge * cp.comp_us) * 1e-6;
          }
        }
        const double total = child_cost + join_cost;
        if (found && total >= best.cost_seconds) continue;

        auto node = std::make_unique<PlanNode>();
        node->kind = PlanNode::Kind::kJoin;
        node->algorithm = choice.algorithm;
        node->join = left_is_rest ? edge->clause
                                  : JoinClause{edge->clause.right,
                                               edge->clause.left};
        node->build_is_right = right_builds;
        // Children are cloned by re-optimizing? No — DP stores unique
        // plans; we must not consume them for a candidate we may discard.
        // Defer: record the decision and rebuild below.
        node->est_tuples = out_tuples;
        node->est_cost_seconds = total;

        best = SubPlan{};
        best.node = std::move(node);
        best.est_tuples = out_tuples;
        // Result width ~ sum of input widths: approximate pages as the sum
        // scaled by the output/input tuple ratio of the probe side.
        best.est_pages = std::max(
            1.0, (left.est_pages / std::max(1.0, left.est_tuples) +
                  right.est_pages / std::max(1.0, right.est_tuples)) *
                     out_tuples);
        best.cost_seconds = total;
        // Stash which split produced it for the rebuild pass.
        best.node->dp_split_rest = rest;
        best.node->dp_split_bit = bit;
        best_fp = std::move(cand_fp);
        found = true;
      }
      if (found) {
        if (cache != nullptr) {
          // Record the winner's fingerprint and output columns (build side
          // first, the Schema::Concat order) for composition in supersets.
          const auto& l_cols = mask_cols[best.node->dp_split_rest];
          const auto& r_cols = mask_cols[best.node->dp_split_bit];
          std::vector<ColumnRef> cols =
              best.node->build_is_right ? r_cols : l_cols;
          const auto& tail = best.node->build_is_right ? l_cols : r_cols;
          cols.insert(cols.end(), tail.begin(), tail.end());
          mask_cols[mask] = std::move(cols);
          mask_fp[mask] = std::move(best_fp);
        }
        dp[mask] = std::move(best);
      }
    }
  }

  const uint32_t full = (1u << n) - 1;
  auto it = dp.find(full);
  if (it == dp.end() || it->second.node == nullptr) {
    return Status::InvalidArgument(
        "join graph is disconnected; cartesian products are not planned");
  }

  // ---- Rebuild the winning tree by walking the recorded splits, moving
  // the actual sub-plans into place (children could not be attached during
  // the DP because candidate plans are discarded freely).
  std::function<std::unique_ptr<PlanNode>(uint32_t)> build =
      [&](uint32_t mask) -> std::unique_ptr<PlanNode> {
    SubPlan& sp = dp[mask];
    MMDB_CHECK(sp.node != nullptr);
    if (sp.node->kind != PlanNode::Kind::kJoin) {
      return std::move(sp.node);
    }
    const uint32_t rest = sp.node->dp_split_rest;
    const uint32_t bit = sp.node->dp_split_bit;
    sp.node->dp_split_rest = 0;
    sp.node->dp_split_bit = 0;
    sp.node->child_left = build(rest);
    sp.node->child_right = build(bit);
    // Output columns: build side first (Schema::Concat(R, S) order).
    const auto& l_cols = sp.node->child_left->output_columns;
    const auto& r_cols = sp.node->child_right->output_columns;
    if (sp.node->build_is_right) {
      sp.node->output_columns = r_cols;
      sp.node->output_columns.insert(sp.node->output_columns.end(),
                                     l_cols.begin(), l_cols.end());
    } else {
      sp.node->output_columns = l_cols;
      sp.node->output_columns.insert(sp.node->output_columns.end(),
                                     r_cols.begin(), r_cols.end());
    }
    return std::move(sp.node);
  };

  std::unique_ptr<PlanNode> root = build(full);

  // ---- Final projection.
  if (!query.select_columns.empty()) {
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanNode::Kind::kProject;
    project->projection = query.select_columns;
    project->output_columns = query.select_columns;
    project->est_tuples = root->est_tuples;
    project->est_cost_seconds = root->est_cost_seconds;
    project->child_left = std::move(root);
    root = std::move(project);
  }
  return root;
}

}  // namespace mmdb
