#ifndef MMDB_DB_DATABASE_H_
#define MMDB_DB_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "backup/hot_backup.h"
#include "cache/reuse_cache.h"
#include "cost/access_cost.h"
#include "db/query_parser.h"
#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "index/avl_tree.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "optimizer/executor.h"
#include "optimizer/optimizer.h"
#include "sim/fault_injector.h"
#include "sim/stable_memory.h"
#include "txn/banking.h"
#include "txn/checkpoint.h"
#include "txn/instant_recovery.h"
#include "txn/recovery.h"
#include "txn/stable_log.h"
#include "txn/mvcc.h"
#include "txn/transaction_manager.h"

namespace mmdb {

/// The public facade of mmdb: a main-memory relational database with
///  * tables + AVL / B+-tree / hash secondary indexes (§2),
///  * a cost-based query planner and the §3 join/aggregate executors (§4),
///  * and an optional transactional plane with group-commit logging,
///    fuzzy checkpointing and crash recovery (§5).
///
/// Queries go through SQL only: `ExecuteSql` here, or `server/Server`,
/// which adds admission control and transaction-scoped table locks on top.
///
/// Threading (DESIGN.md §10): `ExecuteSql` is re-entrant — read statements
/// (SELECT / EXPLAIN [ANALYZE]) run concurrently under a shared
/// catalog/table latch with statement-local cost clocks and metrics shards
/// (merged on completion, so totals match a serial run), while write
/// statements (CREATE TABLE / INSERT / UPDATE) take the latch exclusively.
/// So do the data calls outside the dialect (CreateTable, BulkLoad,
/// CreateIndex), which may therefore run beside SQL statements. The
/// transactional plane is fully thread-safe.
///
/// Database implements IndexProvider: the planner's IndexScan nodes are
/// served by the facade's own AVL / B+-tree / hash indexes.
class Database : public IndexProvider {
 public:
  struct Options {
    int64_t page_size = 4096;
    /// |M| granted to query operators (pages).
    int64_t memory_pages = 4096;
    CostParams cost_params;
    /// Planner knobs (W, hash-only reduction).
    double w_cpu = 1.0;
    bool planner_hash_only = false;
    /// Unused: the executor has one execution path (DESIGN.md §14). Kept
    /// only because sql_e2e/sql_e2e.cc copies it into
    /// OptimizerOptions::vectorize; both fields go with that line.
    bool vectorize = false;
    /// Buffer pool for the paged (B+-tree) indexes.
    int64_t buffer_pool_pages = 4096;
    ReplacementPolicy buffer_policy = ReplacementPolicy::kRandom;
    /// Byte budget of the plan-fingerprint reuse cache (DESIGN.md §15):
    /// materialized sub-plan results and join-build hash tables served
    /// across statements. 0 (the default) disables reuse entirely.
    int64_t reuse_cache_bytes = 0;
    /// Admission floor for the reuse cache: sub-plans whose measured
    /// production cost (simulated seconds) falls below this are not cached.
    double reuse_min_cost_seconds = 1e-6;
    /// Let the planner price cached sub-results/builds at their serve cost
    /// (can flip join order — better plans, but row order may differ from
    /// a cache-off run). False keeps the cache costing-transparent: same
    /// plans, byte-identical output, reuse still serves within the plan.
    bool reuse_plan_discounts = true;
  };

  enum class IndexType { kAvl, kBTree, kHash, kAuto };

  Database() : Database(Options()) {}
  explicit Database(Options options);

  // ---- DDL / data ----------------------------------------------------
  // CreateTable, BulkLoad and CreateIndex take the latch exclusively.
  Status CreateTable(const std::string& name, Schema schema);
  /// Appends every row of `relation`, whose schema must match the table's:
  /// the bulk form of SQL INSERT.
  Status BulkLoad(const std::string& name, Relation relation);
  StatusOr<const Relation*> GetTable(const std::string& name) const;

  // ---- Indexes (§2) ----------------------------------------------------
  /// Builds an index on `table.column` (there is no CREATE INDEX in the
  /// SQL dialect). kAuto applies the §2 cost model: AVL when the memory
  /// fraction exceeds the break-even H, else B+-tree. The B+-tree keys
  /// INT64 and CHAR columns only: kBTree on any other column is refused,
  /// and kAuto picks AVL for it.
  Status CreateIndex(const std::string& table, const std::string& column,
                     IndexType type);

  /// IndexProvider: all rows satisfying an equality / prefix restriction,
  /// served from the column's index (used by IndexScan plan nodes). CPU
  /// work is charged to `ctx->clock` when given (the executing statement's
  /// private clock), else to the database clock; the index structure is
  /// guarded by a per-index latch so concurrent statements may share it.
  StatusOr<Relation> IndexLookupAll(const std::string& table,
                                    const Predicate& pred,
                                    ExecContext* ctx = nullptr) override;

  // ---- SQL front end (db/query_parser.h) --------------------------------
  struct SqlResult {
    Relation relation;        ///< SELECT output (empty for DDL/DML)
    std::string plan_text;    ///< EXPLAIN / SELECT plan
    int64_t rows_affected = 0;  ///< INSERT row count
    /// True for EXPLAIN ANALYZE: plan_text carries per-node actual run
    /// statistics and relation carries the executed result.
    bool analyzed = false;
  };

  /// Parses and executes one statement: CREATE TABLE / INSERT / UPDATE /
  /// SELECT / EXPLAIN SELECT. See ParseStatement for the dialect.
  ///
  /// Re-entrant: safe to call from many threads at once. Reads share the
  /// catalog latch and execute against statement-local clocks/metrics;
  /// writes serialize on the exclusive latch. Statement-level atomicity
  /// only — transaction-scoped locking across statements is the server
  /// layer's job (server/server.h).
  ///
  /// With the transactional plane enabled, a write statement is made
  /// durable before this returns: its commit record goes through the WAL
  /// (group commit overlaps concurrent statements' flushes, §5.2).
  StatusOr<SqlResult> ExecuteSql(const std::string& sql);

  /// §5.2 pre-commit variant: identical to ExecuteSql except that it
  /// returns as soon as the statement's effects are visible and its commit
  /// record is *appended* (not yet durable). `*durable_txn` receives the
  /// commit id to pass to WaitSqlDurable before acknowledging a client, or
  /// kInvalidTxn when there is nothing to wait for (reads; txn plane off).
  /// The server layer releases its table locks between the two calls so
  /// writers overlap their group-commit flushes instead of serializing
  /// lock-held durability waits. PrepareSql followed by ExecutePrepared.
  StatusOr<SqlResult> ExecuteSqlPreCommit(const std::string& sql,
                                          TxnId* durable_txn);

  /// The parse half of ExecuteSqlPreCommit, run under the shared latch
  /// against the catalog's schemas and index sets. The server takes a
  /// statement's locks from the result before executing it (DESIGN.md
  /// §10), so the statement is parsed once.
  StatusOr<ParsedStatement> PrepareSql(const std::string& sql);

  /// The execute half: a write statement (ParsedStatement::is_write) runs
  /// under the exclusive latch and appends its commit record as
  /// ExecuteSqlPreCommit describes; any other statement runs under the
  /// shared latch. BEGIN / COMMIT / ROLLBACK are refused with
  /// kInvalidArgument: transactions are a server session's.
  StatusOr<SqlResult> ExecutePrepared(ParsedStatement stmt,
                                      TxnId* durable_txn);

  /// Blocks until `txn`'s commit record is durable. No-op for kInvalidTxn.
  void WaitSqlDurable(TxnId txn);

  /// True when an UPDATE on `table` with an equality predicate on
  /// `where_column` assigning `set_columns` qualifies for the server's
  /// row-granularity lock fast path (DESIGN.md §11): the predicate column
  /// must be the table's FIRST column — so every fast-path writer on the
  /// table keys its row locks off the same column, making distinct
  /// literals imply disjoint row sets — and no SET clause may reassign it
  /// (a row must not migrate between row-lock ids mid-transaction).
  bool RowLockEligible(const std::string& table,
                       const std::string& where_column,
                       const std::vector<std::string>& set_columns) const;

  // ---- Transactional plane (§5) -----------------------------------------
  struct TxnPlaneOptions {
    enum class WalKind {
      kSingleNoGroupCommit,  ///< one log I/O per commit (~100 tps baseline)
      kSingle,               ///< group commit (~1000 tps)
      kPartitioned,          ///< k log devices + dependency lattice
      kStable,               ///< stable-memory buffer + compression
    };
    WalKind wal_kind = WalKind::kSingle;
    int log_partitions = 4;
    int64_t num_records = 10'000;
    int32_t record_size = 72;
    std::chrono::microseconds log_write_latency{10'000};  // the 10 ms page
    int64_t stable_memory_bytes = 16 << 20;
    bool compress_stable_log = true;
    bool start_checkpointer = false;
    /// §6 / mvcc.h: maintain per-record version chains so snapshot
    /// transactions read without locks and write with first-writer-wins
    /// conflict detection instead of blocking (DESIGN.md §11).
    bool enable_versioning = false;
    CheckpointerOptions checkpointer_options;
    /// When non-null, every transfer of the data disk, the log devices and
    /// stable memory consults this injector (not owned; must outlive the
    /// Database).
    FaultInjector* fault_injector = nullptr;
  };

  /// Builds the recovery stack (store, locks, WAL, checkpointer) and
  /// starts its threads.
  Status EnableTransactions(const TxnPlaneOptions& options);

  TransactionManager* txn_manager() { return txn_manager_.get(); }
  /// Non-null iff TxnPlaneOptions::enable_versioning was set.
  MvccManager* version_manager() { return versions_.get(); }
  RecoverableStore* recoverable_store() { return store_.get(); }
  Checkpointer* checkpointer() { return checkpointer_.get(); }
  Wal* wal() { return wal_.get(); }
  FirstUpdateTable* first_update_table() { return fut_.get(); }
  StableMemory* stable_memory() { return stable_.get(); }
  /// Hot backup driver (DESIGN.md §13); non-null once transactions are on.
  BackupManager* backup() { return backup_.get(); }

  /// Restores a backup chain into THIS database's record plane (which must
  /// have transactions enabled, geometry matching the source, and no
  /// traffic running). Thin wrapper over BackupManager::RestoreChain using
  /// this database's store and first-update table.
  Status RestoreFromBackup(const std::vector<const BackupImage*>& chain,
                           const RestoreOptions& options = {});

  /// Forces one full checkpoint sweep.
  StatusOr<int64_t> CheckpointNow();

  /// Power failure: wipes the store's volatile memory (and stops the
  /// background threads, whose in-flight state is lost with it).
  Status Crash();

  /// Restart recovery; restarts the background threads afterwards.
  ///
  /// RecoveryMode::kBlocking replays everything before returning (§5).
  /// RecoveryMode::kInstant returns after the analysis phase only: the
  /// database serves traffic immediately (sessions open, statements run)
  /// while a RecoveryController replays records on demand and sweeps the
  /// rest in the background (DESIGN.md §12). The background checkpointer —
  /// when configured — is deliberately NOT restarted until the sweep
  /// drains: checkpointing a page with unrestored records would clear its
  /// first-update entry and lose redo on a re-crash.
  StatusOr<RecoveryStats> Recover(RecoveryOptions options = {});

  /// The live controller of an in-progress (or just-finished) instant
  /// recovery; nullptr before the first kInstant Recover().
  RecoveryController* recovery_controller() { return recovery_ctl_.get(); }

  /// Blocks until instant recovery has fully drained (index retired, final
  /// checkpoint durable). No-op (OK) when no instant recovery is running.
  /// After this returns OK the store is byte-identical to what blocking
  /// recovery would have produced, modulo committed new traffic.
  Status WaitRecoveryDrained();

  // ---- Introspection -----------------------------------------------------
  ExecContext* exec_context() { return &exec_ctx_; }
  CostClock* clock() { return &clock_; }
  SimulatedDisk* disk() { return &disk_; }
  BufferPool* buffer_pool() { return &pool_; }
  const Catalog& catalog();

  /// The database-wide metrics registry (DESIGN.md §9): the disk, buffer
  /// pool, query executors, reuse cache and every transactional-plane
  /// component count here live, where each event happens. Counters
  /// accumulate across Crash()/Recover().
  MetricsRegistry* metrics() { return &metrics_; }
  std::string MetricsJson();

  /// The plan-fingerprint reuse cache; null unless Options::
  /// reuse_cache_bytes > 0.
  ReuseCache* reuse_cache() { return reuse_cache_.get(); }

 private:
  struct IndexHolder {
    IndexType type;
    std::unique_ptr<AvlTree> avl;
    std::unique_ptr<PageFile> btree_file;
    std::unique_ptr<BPlusTree> btree;
    std::unique_ptr<HashIndex> hash;
    int column = -1;
    int32_t key_width = 8;
    /// Index read latch (§10): lookups mutate the structures' operation
    /// counters (and pin buffer pool pages), so concurrent read statements
    /// serialize per index. Heap-allocated to keep IndexHolder movable.
    std::unique_ptr<std::mutex> latch = std::make_unique<std::mutex>();
  };
  struct TableHolder {
    Relation relation;
    std::map<std::string, IndexHolder> indexes;
  };

  // Bodies of the DDL / data calls and of SQL writes; the caller holds
  // latch_ exclusively.
  Status CreateTableLocked(const std::string& name, Schema schema);
  /// Appends one row and maintains the table's indexes: the body of SQL
  /// INSERT and of BulkLoad.
  Status Insert(const std::string& name, Row row);
  /// Which index type CreateIndex(kAuto) picks right now.
  StatusOr<IndexType> PickIndexType(const std::string& table,
                                    const std::string& column) const;
  Status BuildIndex(TableHolder* table, const std::string& table_name,
                    const std::string& column, IndexType type);
  /// Adds `row`'s key to `index` under `ordinal`: the one write path into
  /// every index type, shared by Insert and BuildIndex.
  static Status AddToIndex(IndexHolder* index, const Row& row,
                           int64_t ordinal);

  StatusOr<Row> RowByOrdinal(const TableHolder& table, int64_t ordinal) const;
  /// A schema or index set changed: the next catalog use rebuilds.
  void InvalidateCatalog() {
    catalog_dirty_.store(true, std::memory_order_release);
  }
  /// Rows were added: only the column statistics are stale. Write parses
  /// need schemas and index sets alone, so only planning rebuilds for this.
  void MarkStatisticsStale() {
    stats_stale_.store(true, std::memory_order_release);
  }
  /// Rebuilds catalog_ if its schemas or index sets are out of date, or,
  /// with `statistics`, if its statistics are.
  void RefreshCatalog(bool statistics);
  AccessModelParams ModelFor(const TableHolder& table, int column) const;

  StatusOr<SqlResult> ExecuteSqlReadLocked(const ParsedStatement& stmt);
  /// Applies a parsed write statement; INSERT moves its rows out of
  /// `stmt`.
  StatusOr<SqlResult> ExecuteSqlWriteLocked(ParsedStatement&& stmt);
  Status ExecuteUpdateLocked(const ParsedStatement& stmt,
                             int64_t* rows_affected);
  /// The planner settings every SQL statement plans with.
  OptimizerOptions PlannerOptions() const;
  /// Optimize + execute under `ctx`; with `trace` the plan text is the
  /// EXPLAIN ANALYZE rendering, and with `aggregate` the result is grouped
  /// by it (RunQuery).
  StatusOr<QueryResult> ExecuteWith(const Query& query, ExecContext* ctx,
                                    PlanRunTrace* trace,
                                    const AggregateSpec* aggregate,
                                    AggStats* agg_stats);
  /// IndexLookupAll's ordered scan (AVL / B+-tree) of the rows whose key
  /// is >= low, in key order until `fn` returns false; caller holds the
  /// index latch.
  Status IndexRangeScanLocked(const TableHolder& table, IndexHolder& index,
                              const Value& low,
                              const std::function<bool(const Row&)>& fn);

  /// Builds a fresh lock table, version chains (when versioning is on) and
  /// transaction manager that numbers transactions from `first_txn_id`.
  void ResetTxnManager(TxnId first_txn_id);

  Options options_;
  CostClock clock_;
  MetricsRegistry metrics_;  ///< declared before every component counting here
  SimulatedDisk disk_;
  BufferPool pool_;
  /// Declared before exec_ctx_, which points at it.
  std::unique_ptr<ReuseCache> reuse_cache_;
  ExecContext exec_ctx_;

  std::map<std::string, TableHolder> tables_;
  Catalog catalog_;
  std::atomic<bool> catalog_dirty_{true};
  std::atomic<bool> stats_stale_{false};

  /// §10 catalog/table latch: read statements shared; write statements,
  /// CreateTable, BulkLoad and CreateIndex exclusive.
  mutable std::shared_mutex latch_;
  /// Guards the lazy catalog rebuild (exclusive) against concurrent
  /// readers that rebuild too and against write parses (shared), which
  /// run under the shared latch and may find the statistics stale.
  std::shared_mutex catalog_mu_;

  // §5 plane.
  TxnPlaneOptions txn_options_;
  bool txn_enabled_ = false;
  /// Commit-record ids for durable SQL write statements (§5.2 pre-commit
  /// in ExecuteSql). Offset far above TransactionManager's counting ids so
  /// the two namespaces never collide in the log or the durability map;
  /// Recover() re-seeds it past every logged SQL commit id (recovery
  /// tracks the two namespaces separately, see kSqlStmtTxnBase).
  std::atomic<TxnId> next_sql_stmt_txn_{kSqlStmtTxnBase};
  std::unique_ptr<StableMemory> stable_;
  std::vector<std::unique_ptr<LogDevice>> log_devices_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<LockManager> lock_manager_;
  std::unique_ptr<RecoverableStore> store_;
  std::unique_ptr<FirstUpdateTable> fut_;
  std::unique_ptr<MvccManager> versions_;
  std::unique_ptr<TransactionManager> txn_manager_;
  std::unique_ptr<BackupManager> backup_;
  std::unique_ptr<Checkpointer> checkpointer_;
  /// Instant recovery driver (declared after checkpointer_: its callback
  /// starts the checkpointer, so it must be destroyed first).
  std::unique_ptr<RecoveryController> recovery_ctl_;
  /// Controllers superseded by a later Recover(). Kept alive (stopped)
  /// until ~Database: a guard call in flight on another thread may still
  /// hold a pointer to one.
  std::vector<std::unique_ptr<RecoveryController>> retired_recovery_ctls_;
};

}  // namespace mmdb

#endif  // MMDB_DB_DATABASE_H_
