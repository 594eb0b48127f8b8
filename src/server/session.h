#ifndef MMDB_SERVER_SESSION_H_
#define MMDB_SERVER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "db/database.h"

namespace mmdb {

class Server;
class SqlScheduler;

/// How a session's reads behave relative to concurrent writers (§5/§6).
enum class IsolationLevel {
  /// Strict 2PL at table granularity on the SQL plane (S on read tables,
  /// X on written ones) and record granularity on the record plane.
  kSerializable,
  /// Snapshot isolation over the MVCC version chains (§6, DESIGN.md §11):
  /// reads take no locks and no latches — they are visibility checks
  /// against the session's read timestamp — so snapshot readers never
  /// block, and are never blocked by, writers. Record-plane writes claim
  /// per-record write ownership with first-writer-wins conflict
  /// detection: a lost race rolls the transaction back with kConflict
  /// instead of blocking.
  kSnapshot,
};

struct SessionOptions {
  IsolationLevel isolation = IsolationLevel::kSerializable;
  /// Refuse every write (SQL CREATE/INSERT/UPDATE and record-plane
  /// UpdateRecord) with kFailedPrecondition. A server fronting a
  /// log-shipping replica forces this on (Server::Options::read_only):
  /// the replica's state advances only through shipped records.
  bool read_only = false;
};

/// One client's connection state (DESIGN.md §10): the current transaction,
/// its isolation choice, a plan-trace toggle, and a private metrics shard
/// merged into the database registry when the session closes.
///
/// Statement execution is asynchronous: SubmitSql admits the statement
/// through the server's SqlScheduler and returns a future (already ready
/// with kOverloaded / kFailedPrecondition when admission rejects it);
/// ExecuteSql is the blocking convenience. A session may pipeline up to
/// the scheduler's per-session cap, but its statements *execute* one at a
/// time (in admission order) so multi-statement transaction state stays
/// coherent; concurrency comes from running many sessions.
///
/// Sessions are created by Server::OpenSession and owned by the server;
/// they must not outlive it.
class Session {
 public:
  int64_t id() const { return id_; }
  const SessionOptions& options() const { return options_; }

  /// Flips EXPLAIN ANALYZE tracing for subsequent SELECTs: when on, a
  /// SELECT's result is still computed, and plan_text carries per-node
  /// actual run statistics.
  void set_trace_plans(bool on) {
    trace_plans_.store(on, std::memory_order_relaxed);
  }

  // ---- SQL plane --------------------------------------------------------
  /// Admits one statement; the future carries its result. BEGIN / COMMIT /
  /// ROLLBACK are recognized here as transaction control.
  std::future<StatusOr<Database::SqlResult>> SubmitSql(std::string sql);

  /// SubmitSql + wait.
  StatusOr<Database::SqlResult> ExecuteSql(const std::string& sql);

  /// Runs a semicolon-separated batch in order, one admission per
  /// statement. A failing statement contributes its error to the returned
  /// vector and does NOT abort the rest of the batch (the REPL's
  /// multi-statement contract). Semicolons inside string literals are not
  /// separators.
  std::vector<StatusOr<Database::SqlResult>> ExecuteBatch(
      const std::string& batch);

  /// The batch splitter behind ExecuteBatch (exposed for the REPL and
  /// tests): statements with comments/whitespace-only pieces dropped.
  static std::vector<std::string> SplitStatements(const std::string& batch);

  // ---- Transactions -----------------------------------------------------
  /// Starts a multi-statement transaction: table locks (and record locks)
  /// acquired by subsequent statements are held until Commit / Rollback.
  Status Begin();
  Status Commit();
  /// Aborts the record-plane transaction (undoing its updates) and drops
  /// all locks. SQL-plane writes are durable per statement and are not
  /// undone — the locks provide isolation, not SQL rollback.
  Status Rollback();
  bool in_txn() const;

  // ---- Record plane (§5/§6; requires Database::EnableTransactions) ------
  /// kSerializable: S-lock read through the TransactionManager.
  /// kSnapshot: lock-free MVCC visibility read (requires
  /// enable_versioning) — inside Begin()/Commit() the whole transaction
  /// reads at one pinned timestamp; outside, each read snapshots the
  /// latest commit.
  StatusOr<std::string> ReadRecord(int64_t record_id);
  /// Logged in-place update; autocommits unless inside Begin().
  /// kSerializable: record X lock (blocking 2PL). kSnapshot: per-record
  /// MVCC write claim — a conflict (another in-flight writer, or a commit
  /// newer than the pinned snapshot) returns kConflict and rolls the open
  /// transaction back; retry on a fresh transaction.
  Status UpdateRecord(int64_t record_id, const std::string& value);

  /// This session's private metrics shard (session.statements, ...).
  MetricsRegistry* metrics() { return &metrics_; }

 private:
  friend class Server;
  friend class SqlScheduler;

  Session(Server* server, int64_t id, SessionOptions options);

  /// Statement body, run on a scheduler worker under stmt_mu_.
  StatusOr<Database::SqlResult> RunStatement(const std::string& sql);

  // ---- In-flight slot handshake (SqlScheduler / Server) -----------------
  /// Counts one admitted statement against this session, or rejects with
  /// kOverloaded (cap reached) / kFailedPrecondition (session closed).
  /// The closed check and the increment are one critical section, so a
  /// statement can never be admitted after CloseAndWaitIdle() returned.
  Status ReserveInflightSlot(int max_inflight);
  /// Releases one slot. Touches no member after inflight_mu_ is dropped —
  /// the CloseAndWaitIdle() waiter may destroy the session the moment it
  /// reacquires the mutex and sees inflight_ == 0.
  void ReleaseInflightSlot();
  /// Refuses all further admissions and blocks until every admitted
  /// statement has finished. After this returns the session is quiescent
  /// and may be destroyed.
  void CloseAndWaitIdle();
  Status BeginLocked();
  Status CommitLocked();
  Status RollbackLocked();
  /// Lazily begins the record-plane transaction for the current scope.
  StatusOr<TxnId> RecordTxnLocked();
  /// Table 2PL for one parsed statement: locks every table it names
  /// (sorted, so single statements cannot deadlock each other), X for
  /// writes, S for serializable reads, nothing for snapshot reads. Point
  /// updates take table IX + row X instead when Server::Options::row_locks
  /// is on (DESIGN.md §11).
  Status LockTablesLocked(const ParsedStatement& stmt);

  Server* server_;
  const int64_t id_;
  SessionOptions options_;
  std::atomic<bool> trace_plans_{false};

  /// Guards inflight_ / closed_ (the slot handshake above).
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  /// Admitted-but-unfinished statements (maintained by SqlScheduler).
  int inflight_ = 0;
  /// Set by CloseAndWaitIdle: no further admissions.
  bool closed_ = false;

  /// Serializes this session's statement execution and transaction state.
  mutable std::mutex stmt_mu_;
  bool explicit_txn_ = false;
  bool holds_table_locks_ = false;
  TxnId record_txn_ = 0;  ///< 0 = none

  MetricsRegistry metrics_;
};

}  // namespace mmdb

#endif  // MMDB_SERVER_SESSION_H_
