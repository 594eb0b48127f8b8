#ifndef MMDB_EXEC_EXEC_CONTEXT_H_
#define MMDB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "common/metrics.h"
#include "common/status.h"
#include "sim/cost_clock.h"
#include "sim/simulated_disk.h"
#include "storage/schema.h"

namespace mmdb {

class ReuseCache;

/// Everything an executed operator needs: the spill disk, the cost clock it
/// charges primitive operations to, and the memory grant |M| (in pages).
///
/// The §3 algorithms are *actually executed* — tuples really move, hash
/// tables really build, partitions really spill to the simulated disk — and
/// every comparison/hash/move/swap/IO is charged to `clock`, so that
/// clock->Seconds() reproduces the paper's analytic simulation from a real
/// run (cross-checked in tests and bench_fig1_joins).
struct ExecContext {
  SimulatedDisk* disk = nullptr;
  CostClock* clock = nullptr;
  int64_t memory_pages = 1024;  ///< |M|
  double fudge = 1.2;           ///< F
  /// Cap on recursive overflow resolution in hybrid hash (§3.3: "apply the
  /// hybrid hash join recursively").
  int max_recursion_depth = 4;
  /// Optional observability sink (DESIGN.md §9). When set, operators record
  /// named counters/histograms here; a SQL statement gets a private shard
  /// merged into the database registry when it finishes (DESIGN.md §8).
  /// When null, nothing is recorded.
  MetricsRegistry* metrics = nullptr;
  /// Intermediate-reuse cache (DESIGN.md §15). When set, the plan executor
  /// serves and installs materialized sub-plan results and join-build hash
  /// tables keyed by plan fingerprint. Null (the default) disables reuse:
  /// every statement executes from scratch, today's behavior.
  ReuseCache* reuse_cache = nullptr;

  int64_t page_size() const { return disk->page_size(); }

  /// Tuples of `schema` that fit into `pages` of memory once the F-overhead
  /// of a hash/sort structure is paid: {M} = pages * tpp / F.
  int64_t TuplesInPages(const Schema& schema, int64_t pages) const;
};

/// Convenience bundle owning a clock and a disk, for tests, examples and
/// benches: `ExecEnv env; RunJoin(..., &env.ctx);`
struct ExecEnv {
  explicit ExecEnv(int64_t memory_pages = 1024,
                   CostParams params = CostParams::Table2Defaults())
      : clock(params), disk(params.page_size_bytes, &clock) {
    ctx.disk = &disk;
    ctx.clock = &clock;
    ctx.memory_pages = memory_pages;
    ctx.fudge = params.fudge;
    ctx.metrics = &metrics;
  }

  CostClock clock;
  SimulatedDisk disk;
  MetricsRegistry metrics;
  ExecContext ctx;
};

}  // namespace mmdb

#endif  // MMDB_EXEC_EXEC_CONTEXT_H_
