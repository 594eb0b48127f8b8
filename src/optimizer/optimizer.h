#ifndef MMDB_OPTIMIZER_OPTIMIZER_H_
#define MMDB_OPTIMIZER_OPTIMIZER_H_

#include <memory>

#include "cost/join_cost.h"
#include "optimizer/catalog.h"
#include "optimizer/plan.h"

namespace mmdb {

class ReuseCache;

/// Knobs for the §4 access planner.
struct OptimizerOptions {
  int64_t memory_pages = 1024;   ///< |M| granted to each operator
  CostParams cost_params;        ///< machine model (Table 2)
  /// Selinger weight W in  cost = W*|CPU| + |I/O|  [SELI79].
  double w_cpu = 1.0;
  /// §4's reduction: with plenty of memory "there is only one algorithm to
  /// choose from" — consider only the hybrid hash join. When false the
  /// planner prices all four algorithms per join (the classical search).
  bool hash_only = false;
  /// Unused: the executor has one execution path (DESIGN.md §14). Kept
  /// only because sql_e2e/sql_e2e.cc assigns it from
  /// Database::Options::vectorize; both fields go with that line.
  bool vectorize = false;
  /// Intermediate-reuse cache consulted during costing (DESIGN.md §15).
  /// When set, each DP state is fingerprinted with the cache's canonical
  /// grammar so already-materialized sub-results and join builds can be
  /// priced at their serve cost — a cached build costs ~0, which can flip
  /// the join order or build side.
  const ReuseCache* reuse_cache = nullptr;
  /// When false the cache is costing-transparent: fingerprints are still
  /// computed but no discounts apply, so the chosen plan (and therefore
  /// row order) is byte-identical to running with no cache at all.
  bool reuse_cost_discounts = true;
};

/// A Selinger-flavoured planner specialised for main memory (§4):
///  * selections are pushed below joins and ordered most-selective-first;
///  * join order is found by dynamic programming over connected left-deep
///    prefixes — WITHOUT tracking "interesting orders", because the hash
///    algorithms are insensitive to input order (the paper's argument);
///  * each join picks its algorithm by pricing the §3 cost formulas with
///    the estimated input sizes and W*CPU + IO weighting.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, OptimizerOptions options)
      : catalog_(catalog), options_(options) {}

  /// Produces a physical plan. Fails if a table/column is unknown or the
  /// join graph is disconnected (cartesian products are not planned).
  StatusOr<std::unique_ptr<PlanNode>> Optimize(const Query& query) const;

  /// Prices one join of the given estimated sizes under the options;
  /// returns the cheapest algorithm and its weighted cost (exposed for the
  /// §4 bench, which shows the choice collapsing to hybrid hash).
  struct AlgorithmChoice {
    JoinAlgorithm algorithm;
    double weighted_cost_seconds;
  };
  AlgorithmChoice ChooseJoinAlgorithm(double build_pages, double build_tuples,
                                      double probe_pages,
                                      double probe_tuples) const;

 private:
  const Catalog* catalog_;
  OptimizerOptions options_;
};

}  // namespace mmdb

#endif  // MMDB_OPTIMIZER_OPTIMIZER_H_
