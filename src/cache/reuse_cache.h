#ifndef MMDB_CACHE_REUSE_CACHE_H_
#define MMDB_CACHE_REUSE_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "exec/join.h"
#include "optimizer/plan.h"
#include "storage/relation.h"
#include "storage/row_view.h"

namespace mmdb {

/// A materialized join-build hash table held by the reuse cache: the build
/// side of an in-memory hybrid hash join, its records keyed on
/// `key_column` and inserted in build-input order (the order
/// exec_internal::ProbeHashTable relies on for byte-identical emission).
/// The embedded JoinHashTable addresses `records`; a serving probe
/// (ProbeHashTable) charges the Comps its probes report to the
/// statement's own clock.
struct CachedBuild {
  CachedBuild(Relation build, int key)
      : records(std::move(build)),
        table(records.schema(), key),
        key_column(key) {
    for (int64_t i = 0; i < records.num_tuples(); ++i) {
      table.Insert(records.record(i));
    }
  }

  Relation records;
  exec_internal::JoinHashTable table;
  int key_column = 0;
};

/// Intermediate-reuse cache (Dursun et al., *Revisiting Reuse in Main
/// Memory Database Systems*; DESIGN.md §15): materialized sub-plan result
/// sets and join-build hash tables keyed by a canonical plan fingerprint —
/// a normalized rendering of the physical plan subtree (node kinds, column
/// positions, predicate operators and literal constants, join algorithm
/// and build side) extended with the per-table data versions the subtree
/// read. Version bumps therefore retire every dependent fingerprint at
/// once: a lookup after a write simply misses, and the stale entry is
/// dropped eagerly by InvalidateTable.
///
/// Admission is decided twice. Before a statement runs, FingerprintRun
/// declines every plan node that reads a table written since the last
/// statement that read it: rows over a table that is being written are
/// likely retired before anyone reads them again, so a declined node runs
/// as if the cache were off and its rows are never collected or copied.
/// The cache keeps, for this, the version each table had at its last read.
/// After an admitted node runs, its entry is admitted only when the cost
/// the executor measured for producing it clears a floor, it fits the
/// per-entry cap, and — after evicting every entry with a worse benefit
/// density (cost per byte) — the bounded byte budget still holds. Lookups
/// do not depend on the first decision: a declined node is still served.
///
/// Thread safety: every method is safe to call concurrently; one mutex
/// guards the maps, and entries are handed out as shared_ptr<const ...> so
/// an invalidation or eviction never yanks data from under an in-flight
/// reader.
///
/// Counts "cache.reuse.*" into the registry passed at construction (a
/// private one when null); bytes and entries are gauges.
class ReuseCache {
 public:
  struct Options {
    /// Total byte budget across result and build entries.
    int64_t budget_bytes = 64ll << 20;
    /// Admission floor: entries whose measured production cost (simulated
    /// seconds) is below this are not worth their bytes.
    double min_cost_seconds = 1e-6;
    /// Per-entry cap; 0 means budget_bytes / 4.
    int64_t max_entry_bytes = 0;
  };

  /// View over the "cache.reuse.*" counters.
  struct Stats {
    int64_t hits = 0;         ///< result + build serves
    int64_t misses = 0;       ///< serve lookups that found nothing
    int64_t build_hits = 0;   ///< subset of hits: materialized builds
    int64_t installs = 0;     ///< entries admitted
    int64_t rejected = 0;     ///< admission refusals (cost floor / size)
    int64_t bypassed = 0;     ///< nodes declined before they ran
    int64_t evictions = 0;    ///< entries dropped for space
    int64_t invalidations = 0;         ///< InvalidateTable calls
    int64_t invalidated_entries = 0;   ///< entries dropped by invalidation
    int64_t bytes = 0;        ///< currently resident payload bytes
    int64_t entries = 0;      ///< currently resident entry count
  };

  ReuseCache();
  explicit ReuseCache(Options options, MetricsRegistry* metrics = nullptr);

  /// Execution-environment tag folded into every join fingerprint: the
  /// memory grant, fudge factor and page size change a hybrid join's
  /// spill split and therefore its emission order, so entries must not
  /// cross environments. The Database sets this once at construction.
  void SetEnvTag(std::string tag);
  const std::string& env_tag() const { return env_tag_; }

  // ---- Table versions --------------------------------------------------
  /// Monotonic per-table data version. The catalog deliberately does not
  /// version table *data* (an in-place UPDATE leaves its stats alone), so
  /// the cache owns the counters: every write-path mutation bumps them via
  /// InvalidateTable, and fingerprints bake the version in.
  uint64_t TableVersion(const std::string& table) const;

  /// Bumps `table`'s version and drops every entry whose fingerprint read
  /// it. Called by the Database write paths (INSERT / UPDATE / CREATE) and
  /// by the transactional plane's commit hook for the record namespace.
  void InvalidateTable(const std::string& table);

  // ---- Fingerprints ----------------------------------------------------
  /// Per-node canonical fingerprints for a whole plan tree, plus the set
  /// of tables each subtree reads (the invalidation dependencies).
  struct Fingerprints {
    std::map<const PlanNode*, std::string> canonical;
    std::map<const PlanNode*, std::vector<std::string>> tables;
    /// Nodes FingerprintRun declined: each reads a table written since the
    /// last statement that read it, so the cache takes nothing from them.
    std::set<const PlanNode*> declined;
    bool admitted(const PlanNode* node) const {
      return declined.count(node) == 0;
    }
    uint64_t Hash(const PlanNode* node) const {
      auto it = canonical.find(node);
      return it == canonical.end() ? 0 : HashString(it->second);
    }
  };
  void FingerprintPlan(const PlanNode& root, Fingerprints* out) const;
  /// FingerprintPlan for a plan about to run, in one locked step with its
  /// admission: a node is declined when a table it reads has a version
  /// other than the one it had at the last statement that read it (a table
  /// never read counts as unwritten). Then records this statement's read
  /// of every table the plan reads.
  void FingerprintRun(const PlanNode& root, Fingerprints* out);
  /// Counts one node declined by FingerprintRun that ran uncached.
  void CountBypassed() { counters_.Add(kBypassed); }

  /// Canonical rendering of one literal (type-tagged, exact — doubles via
  /// %.17g, strings length-prefixed so no two values collide).
  static std::string CanonValue(const Value& v);

  /// Composes a join fingerprint from its children's fingerprints — the
  /// primitive the optimizer's DP uses to price candidates whose children
  /// are not yet attached. Normalized to (build, probe) order: two plans
  /// that swap left/right AND the build flag execute identically, so they
  /// share a fingerprint. Must stay in lockstep with FingerprintPlan.
  std::string CanonJoin(JoinAlgorithm algorithm, const std::string& build_fp,
                        const std::string& probe_fp, int build_key_pos,
                        int probe_key_pos) const;

  /// Resolves `ref` to its position in `columns`: exact (table, column)
  /// match first, then a unique column-name match — so alias-renamed but
  /// structurally identical plans land on the same position.
  static int ResolvePos(const std::vector<ColumnRef>& columns,
                        const ColumnRef& ref);

  // ---- Result entries --------------------------------------------------
  /// Costing probe (no hit/miss accounting): does a result exist for `fp`?
  bool HasResult(const std::string& fp) const;
  /// Serve lookup; counts a hit or a miss.
  std::shared_ptr<const Relation> LookupResult(const std::string& fp);
  /// Cost-based admission of a sub-plan result. Returns true if admitted.
  bool InstallResult(const std::string& fp,
                     const std::vector<std::string>& tables,
                     const Relation& result, double cost_seconds);
  /// The same admission for the rows of `view`, which are copied only
  /// when neither the cost floor nor a size cap refuses them.
  bool InstallResult(const std::string& fp,
                     const std::vector<std::string>& tables,
                     const RowView& view, double cost_seconds);

  // ---- Build entries ---------------------------------------------------
  static std::string BuildKey(const std::string& build_fp, int key_column);
  bool HasBuild(const std::string& build_fp, int key_column) const;
  std::shared_ptr<const CachedBuild> LookupBuild(const std::string& build_fp,
                                                 int key_column);
  bool InstallBuild(const std::string& build_fp, int key_column,
                    const std::vector<std::string>& tables,
                    std::shared_ptr<const CachedBuild> build,
                    double cost_seconds);

  Stats stats() const;
  MetricsRegistry* metrics() const { return counters_.registry(); }
  /// Human-readable dump for the REPL's \cache command.
  std::string DebugString() const;

 private:
  struct Entry {
    std::shared_ptr<const Relation> result;      // exactly one of these
    std::shared_ptr<const CachedBuild> build;    // two is set
    std::vector<std::string> tables;
    int64_t bytes = 0;
    double cost_seconds = 0;
    uint64_t tick = 0;  ///< last touch, for eviction tie-breaks
  };

  uint64_t VersionLocked(const std::string& table) const;
  void FingerprintLocked(const PlanNode& root, Fingerprints* out) const;
  /// The refusals that need no look at the resident entries: cache off,
  /// below the cost floor, or over a size cap. Counts a rejection.
  bool RefusedLocked(int64_t bytes, double cost_seconds);
  bool AdmitLocked(const std::string& key, Entry entry);
  void EraseLocked(const std::string& key);

  const Options options_;
  std::string env_tag_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  /// table name -> keys of entries whose fingerprints read it.
  std::map<std::string, std::set<std::string>> by_table_;
  std::map<std::string, uint64_t> versions_;
  /// table name -> its version when a statement last read it.
  std::map<std::string, uint64_t> read_versions_;
  uint64_t tick_ = 0;
  int64_t bytes_ = 0;

  enum Counter { kHits, kMisses, kBuildHits, kInstalls, kRejected, kBypassed,
                 kEvictions, kInvalidations, kInvalidatedEntries, kBytes,
                 kEntries, kNumCounters };
  MetricCounters<kNumCounters> counters_;
};

}  // namespace mmdb

#endif  // MMDB_CACHE_REUSE_CACHE_H_
