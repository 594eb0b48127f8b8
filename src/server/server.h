#ifndef MMDB_SERVER_SERVER_H_
#define MMDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "db/database.h"
#include "server/session.h"
#include "server/sql_scheduler.h"
#include "txn/lock_manager.h"

namespace mmdb {

/// Multi-session front end over one Database (DESIGN.md §10): opens and
/// closes sessions, admits their statements through a bounded SqlScheduler
/// onto a private worker pool, and provides transaction-scoped *table*
/// locks (strict 2PL through a dedicated LockManager whose lock ids are
/// table-name hashes — a namespace disjoint from the record-plane lock
/// manager) so concurrent sessions see serializable SQL interleavings.
///
/// Shutdown is ordered: stop admitting -> drain every in-flight statement
/// -> stop the checkpointer -> stop the log flusher. Statements therefore
/// never observe the transactional plane's background services dying
/// under them.
///
/// Server counters live in the database's metrics registry under
/// server.sessions.* / server.admission.*, and the table-lock manager
/// counts there under server.locks.*, so Database::MetricsJson() reports
/// them alongside everything else.
class Server {
 public:
  struct Options {
    SqlScheduler::Options scheduler;
    int max_sessions = 64;
    /// Row-granularity SQL write locks (DESIGN.md §11): an UPDATE with an
    /// equality predicate on a table's first column takes intention-
    /// exclusive on the table plus X on the row key, so point writers on
    /// distinct keys run concurrently instead of serializing on a table
    /// X lock. Ineligible writes (full-table UPDATE, INSERT, CREATE, key
    /// reassignment) keep the coarse table X lock. Off = PR 5 behavior,
    /// kept as the bench baseline.
    bool row_locks = true;
    /// Force every session read-only regardless of its SessionOptions —
    /// the admission mode of a server serving a log-shipping replica
    /// (DESIGN.md §13): snapshot reads are offloaded, writes are refused.
    bool read_only = false;
  };

  /// `db` is borrowed and must outlive the server.
  explicit Server(Database* db);  // default Options
  Server(Database* db, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits a new session, or kOverloaded when max_sessions are open
  /// (kFailedPrecondition after Shutdown). The pointer is owned by the
  /// server and valid until CloseSession / Shutdown.
  StatusOr<Session*> OpenSession(SessionOptions options = SessionOptions());

  /// Stops admitting statements for the session, waits for those already
  /// queued or executing to finish, rolls back its open transaction (if
  /// any), merges its metrics shard into the database registry, and
  /// destroys it.
  Status CloseSession(int64_t session_id);

  /// Graceful stop, per the class comment. Idempotent; open sessions are
  /// rolled back and retired — their Session* stay valid (further
  /// submissions are refused with kFailedPrecondition) until the server
  /// itself is destroyed.
  void Shutdown();

  Database* database() { return db_; }
  SqlScheduler* scheduler() { return &scheduler_; }
  LockManager* table_locks() { return &table_locks_; }
  const Options& options() const { return options_; }

  int64_t active_sessions() const;

  /// The table-lock id for `table`: its name hash, folded positive.
  /// A (vanishingly unlikely) collision merely over-serializes two tables.
  static LockId TableLockId(const std::string& table);

  /// The row-lock id for key `canonical_key` of `table` (the key literal
  /// in canonical form, e.g. an integer re-rendered by std::to_string so
  /// "05" and "5" share a lock). Collisions — with other rows or with a
  /// table lock id — merely over-serialize; they can never under-lock.
  static LockId RowLockId(const std::string& table,
                          const std::string& canonical_key);

 private:
  Database* db_;
  Options options_;
  /// Table-granularity 2PL, separate from the record-plane lock manager.
  LockManager table_locks_;
  SqlScheduler scheduler_;

  mutable std::mutex mu_;  ///< guards sessions_ / retired_
  std::map<int64_t, std::unique_ptr<Session>> sessions_;
  /// Sessions retired by Shutdown: no longer active, but kept alive so
  /// client-held pointers cannot dangle.
  std::vector<std::unique_ptr<Session>> retired_;
  std::atomic<int64_t> next_session_id_{1};
  std::atomic<bool> shutdown_{false};
};

}  // namespace mmdb

#endif  // MMDB_SERVER_SERVER_H_
