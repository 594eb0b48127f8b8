#include "server/session.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>

#include "server/server.h"
#include "txn/mvcc.h"

namespace mmdb {

Session::Session(Server* server, int64_t id, SessionOptions options)
    : server_(server), id_(id), options_(options) {
  trace_plans_.store(options.trace_plans, std::memory_order_relaxed);
}

Status Session::ReserveInflightSlot(int max_inflight) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (closed_) return Status::FailedPrecondition("session closed");
  if (inflight_ >= max_inflight) {
    return Status::Overloaded("session in-flight cap reached");
  }
  ++inflight_;
  return Status::OK();
}

void Session::ReleaseInflightSlot() {
  // Notify while still holding the lock: the waiter can then destroy the
  // session only after this thread has released inflight_mu_, i.e. after
  // the last member access here.
  std::lock_guard<std::mutex> lock(inflight_mu_);
  --inflight_;
  if (inflight_ == 0) inflight_cv_.notify_all();
}

void Session::CloseAndWaitIdle() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  closed_ = true;
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::future<StatusOr<Database::SqlResult>> Session::SubmitSql(
    std::string sql) {
  auto promise =
      std::make_shared<std::promise<StatusOr<Database::SqlResult>>>();
  std::future<StatusOr<Database::SqlResult>> future = promise->get_future();
  Status admitted = server_->scheduler()->Submit(
      this, [this, promise, sql = std::move(sql)]() -> std::function<void()> {
        auto result = std::make_shared<StatusOr<Database::SqlResult>>(
            RunStatement(sql));
        // Publishing is deferred until the scheduler has released this
        // statement's admission slots (see SqlScheduler::Submit).
        return [promise, result]() { promise->set_value(std::move(*result)); };
      });
  if (!admitted.ok()) {
    metrics_.Add("session.rejected", 1);
    promise->set_value(admitted);
  }
  return future;
}

StatusOr<Database::SqlResult> Session::ExecuteSql(const std::string& sql) {
  return SubmitSql(sql).get();
}

std::vector<std::string> Session::SplitStatements(const std::string& batch) {
  std::vector<std::string> out;
  std::string current;
  bool in_string = false;
  for (char c : batch) {
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      out.push_back(std::move(current));
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  out.push_back(std::move(current));
  std::vector<std::string> stmts;
  for (std::string& s : out) {
    const bool blank = std::all_of(s.begin(), s.end(), [](unsigned char c) {
      return std::isspace(c) != 0;
    });
    if (!blank) stmts.push_back(std::move(s));
  }
  return stmts;
}

std::vector<StatusOr<Database::SqlResult>> Session::ExecuteBatch(
    const std::string& batch) {
  std::vector<StatusOr<Database::SqlResult>> results;
  for (const std::string& stmt : SplitStatements(batch)) {
    results.push_back(ExecuteSql(stmt));
  }
  return results;
}

bool Session::in_txn() const {
  std::lock_guard<std::mutex> lock(stmt_mu_);
  return explicit_txn_;
}

Status Session::Begin() {
  std::lock_guard<std::mutex> lock(stmt_mu_);
  return BeginLocked();
}

Status Session::Commit() {
  std::lock_guard<std::mutex> lock(stmt_mu_);
  return CommitLocked();
}

Status Session::Rollback() {
  std::lock_guard<std::mutex> lock(stmt_mu_);
  return RollbackLocked();
}

Status Session::BeginLocked() {
  if (explicit_txn_) {
    return Status::FailedPrecondition("transaction already open");
  }
  explicit_txn_ = true;
  metrics_.Add("session.txns", 1);
  return Status::OK();
}

Status Session::CommitLocked() {
  if (!explicit_txn_) return Status::FailedPrecondition("no open transaction");
  Status status = Status::OK();
  if (record_txn_ != 0) {
    status = server_->database()->txn_manager()->Commit(record_txn_);
    record_txn_ = 0;
  }
  explicit_txn_ = false;
  if (holds_table_locks_) {
    server_->table_locks()->ReleaseAll(id_);
    holds_table_locks_ = false;
  }
  return status;
}

Status Session::RollbackLocked() {
  if (!explicit_txn_ && record_txn_ == 0 && !holds_table_locks_) {
    return Status::FailedPrecondition("no open transaction");
  }
  Status status = Status::OK();
  if (record_txn_ != 0) {
    status = server_->database()->txn_manager()->Abort(record_txn_);
    record_txn_ = 0;
  }
  explicit_txn_ = false;
  if (holds_table_locks_) {
    server_->table_locks()->ReleaseAll(id_);
    holds_table_locks_ = false;
  }
  return status;
}

StatusOr<TxnId> Session::RecordTxnLocked() {
  Database* db = server_->database();
  TransactionManager* tm = db->txn_manager();
  if (tm == nullptr) {
    return Status::FailedPrecondition(
        "record operations need EnableTransactions");
  }
  if (record_txn_ == 0) {
    // Snapshot sessions run MVCC transactions: a read timestamp pinned at
    // begin, lock-free reads, first-writer-wins writes (DESIGN.md §11).
    // Without versioning enabled they degrade to 2PL.
    record_txn_ = options_.isolation == IsolationLevel::kSnapshot &&
                          db->version_manager() != nullptr
                      ? tm->BeginSnapshotTxn()
                      : tm->Begin();
  }
  return record_txn_;
}

StatusOr<std::string> Session::ReadRecord(int64_t record_id) {
  Database* db = server_->database();
  std::lock_guard<std::mutex> lock(stmt_mu_);
  if (options_.isolation == IsolationLevel::kSnapshot) {
    MvccManager* versions = db->version_manager();
    if (versions == nullptr) {
      return Status::FailedPrecondition(
          "snapshot reads need enable_versioning");
    }
    if (explicit_txn_) {
      // Inside BEGIN/COMMIT the whole transaction reads at one pinned
      // timestamp — a true repeatable snapshot spanning concurrent commits.
      MMDB_ASSIGN_OR_RETURN(TxnId txn, RecordTxnLocked());
      StatusOr<std::string> value = db->txn_manager()->Read(txn, record_id);
      metrics_.Add("session.record_reads", 1);
      if (!value.ok() && value.status().code() == StatusCode::kRecovering) {
        metrics_.Add("session.recovering_rejections", 1);
      }
      return value;
    }
    // Lock-free: a one-read snapshot at the latest commit timestamp. Never
    // blocks on (or blocks) any writer's record locks.
    const uint64_t snap = versions->BeginSnapshot();
    StatusOr<std::string> value = versions->Read(snap, record_id);
    versions->EndSnapshot(snap);
    metrics_.Add("session.record_reads", 1);
    if (!value.ok() && value.status().code() == StatusCode::kRecovering) {
      metrics_.Add("session.recovering_rejections", 1);
    }
    return value;
  }
  MMDB_ASSIGN_OR_RETURN(TxnId txn, RecordTxnLocked());
  StatusOr<std::string> value = db->txn_manager()->Read(txn, record_id);
  metrics_.Add("session.record_reads", 1);
  if (!value.ok() && value.status().code() == StatusCode::kRecovering) {
    metrics_.Add("session.recovering_rejections", 1);
  }
  if (!explicit_txn_) {
    // Autocommit: one op per transaction.
    Status end = value.ok() ? db->txn_manager()->Commit(txn)
                            : db->txn_manager()->Abort(txn);
    record_txn_ = 0;
    if (value.ok() && !end.ok()) return end;
  } else if (!value.ok() && value.status().code() == StatusCode::kDeadlock) {
    (void)RollbackLocked();  // this session is the victim
  }
  return value;
}

Status Session::UpdateRecord(int64_t record_id, const std::string& value) {
  Database* db = server_->database();
  std::lock_guard<std::mutex> lock(stmt_mu_);
  if (options_.read_only) {
    metrics_.Add("session.readonly_rejections", 1);
    return Status::FailedPrecondition("session is read-only");
  }
  MMDB_ASSIGN_OR_RETURN(TxnId txn, RecordTxnLocked());
  Status status = db->txn_manager()->Update(txn, record_id, value);
  metrics_.Add("session.record_updates", 1);
  if (status.code() == StatusCode::kConflict) {
    metrics_.Add("session.conflicts", 1);
  }
  if (status.code() == StatusCode::kRecovering) {
    metrics_.Add("session.recovering_rejections", 1);
  }
  if (!explicit_txn_) {
    Status end = status.ok() ? db->txn_manager()->Commit(txn)
                             : db->txn_manager()->Abort(txn);
    record_txn_ = 0;
    if (status.ok()) return end;
  } else if (status.code() == StatusCode::kDeadlock ||
             status.code() == StatusCode::kConflict ||
             status.code() == StatusCode::kRecovering) {
    // Deadlock victim, first-writer-wins loser, or a record still awaiting
    // instant-recovery replay beyond the on-demand budget: Update may have
    // failed after taking locks or claiming the write, so the transaction
    // is abort-required; the client retries on a fresh one (for
    // kRecovering, after the background sweep catches up).
    (void)RollbackLocked();
  }
  return status;
}

Status Session::LockTablesLocked(const ParsedStatement& stmt) {
  const bool is_write = stmt.is_write();
  // Snapshot readers take no table locks at all.
  if (!is_write && options_.isolation == IsolationLevel::kSnapshot) {
    return Status::OK();
  }
  LockManager* locks = server_->table_locks();
  auto acquire = [&](LockId lock_id, LockMode mode) {
    std::vector<TxnId> deps;
    Status status = locks->Acquire(id_, lock_id, mode, &deps);
    if (status.ok()) holds_table_locks_ = true;
    return status;
  };
  // Row-granularity fast path (DESIGN.md §11): an UPDATE whose one filter
  // is `key = <INT64 literal>` takes intention-exclusive on the table plus
  // X on the key's row-lock id, so point writers on distinct keys stop
  // serializing on a table X lock. Fixed acquisition order (table, then
  // row) keeps single statements deadlock-free among themselves.
  if (stmt.kind == ParsedStatement::Kind::kUpdate &&
      server_->options().row_locks && stmt.query.filters.size() == 1 &&
      stmt.query.filters[0].op == CmpOp::kEq) {
    const Predicate& filter = stmt.query.filters[0];
    const int64_t* key = std::get_if<int64_t>(&filter.literal);
    std::vector<std::string> set_columns;
    for (const ParsedStatement::SetClause& set : stmt.set_clauses) {
      set_columns.push_back(set.column);
    }
    if (key != nullptr &&
        server_->database()->RowLockEligible(stmt.table_name, filter.column,
                                             set_columns)) {
      MMDB_RETURN_IF_ERROR(acquire(Server::TableLockId(stmt.table_name),
                                   LockMode::kIntentionExclusive));
      MMDB_RETURN_IF_ERROR(
          acquire(Server::RowLockId(stmt.table_name, std::to_string(*key)),
                  LockMode::kExclusive));
      metrics_.Add("session.row_lock_statements", 1);
      return Status::OK();
    }
  }
  std::vector<std::string> tables = stmt.query.tables;
  if (!stmt.table_name.empty()) tables.push_back(stmt.table_name);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  const LockMode mode = is_write ? LockMode::kExclusive : LockMode::kShared;
  for (const std::string& table : tables) {
    MMDB_RETURN_IF_ERROR(acquire(Server::TableLockId(table), mode));
  }
  return Status::OK();
}

StatusOr<Database::SqlResult> Session::RunStatement(const std::string& sql) {
  std::lock_guard<std::mutex> lock(stmt_mu_);
  Database* db = server_->database();
  StatusOr<ParsedStatement> stmt = db->PrepareSql(sql);
  if (!stmt.ok()) {
    metrics_.Add("session.statements", 1);
    metrics_.Add("session.errors", 1);
    return stmt.status();
  }
  Database::SqlResult control;
  if (stmt->kind == ParsedStatement::Kind::kBegin) {
    MMDB_RETURN_IF_ERROR(BeginLocked());
    return control;
  }
  if (stmt->kind == ParsedStatement::Kind::kCommit) {
    MMDB_RETURN_IF_ERROR(CommitLocked());
    return control;
  }
  if (stmt->kind == ParsedStatement::Kind::kRollback) {
    MMDB_RETURN_IF_ERROR(RollbackLocked());
    return control;
  }
  if (stmt->is_write() && options_.read_only) {
    metrics_.Add("session.readonly_rejections", 1);
    return Status::FailedPrecondition("session is read-only");
  }
  Status locked = LockTablesLocked(*stmt);
  if (!locked.ok()) {
    metrics_.Add("session.errors", 1);
    if (locked.code() == StatusCode::kDeadlock) {
      (void)RollbackLocked();  // deadlock victim: the whole txn aborts
    } else if (!explicit_txn_ && holds_table_locks_) {
      server_->table_locks()->ReleaseAll(id_);
      holds_table_locks_ = false;
    }
    return locked;
  }
  if (trace_plans_.load(std::memory_order_relaxed) &&
      stmt->kind == ParsedStatement::Kind::kSelect) {
    stmt->kind = ParsedStatement::Kind::kExplainAnalyze;
  }
  TxnId durable_txn = kInvalidTxn;
  StatusOr<Database::SqlResult> result =
      db->ExecutePrepared(std::move(*stmt), &durable_txn);
  metrics_.Add("session.statements", 1);
  if (!result.ok()) {
    metrics_.Add("session.errors", 1);
  } else if (result->rows_affected > 0) {
    metrics_.Add("session.rows_affected", result->rows_affected);
  }
  if (!explicit_txn_ && holds_table_locks_) {
    server_->table_locks()->ReleaseAll(id_);
    holds_table_locks_ = false;
  }
  // §5.2 pre-commit: the table locks are released above, as soon as the
  // statement's commit record is in the log buffer; the client is only
  // answered once that record is durable. Waiting AFTER the lock release
  // is what lets concurrent writers share one group-commit flush instead
  // of serializing lock-held durability stalls.
  db->WaitSqlDurable(durable_txn);
  return result;
}

}  // namespace mmdb
