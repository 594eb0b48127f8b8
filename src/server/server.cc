#include "server/server.h"

#include <functional>
#include <utility>
#include <vector>

namespace mmdb {

Server::Server(Database* db) : Server(db, Options()) {}

Server::Server(Database* db, Options options)
    : db_(db),
      options_(options),
      table_locks_(LockManager::kDefaultWaitTimeout, db->metrics(),
                   "server.locks"),
      scheduler_(options.scheduler, db->metrics()) {}

Server::~Server() { Shutdown(); }

LockId Server::TableLockId(const std::string& table) {
  const size_t h = std::hash<std::string>{}(table);
  return static_cast<LockId>(h & 0x7fffffffffffffffULL);
}

LockId Server::RowLockId(const std::string& table,
                         const std::string& canonical_key) {
  const size_t h =
      std::hash<std::string>{}(table + '\x1f' + canonical_key);
  return static_cast<LockId>(h & 0x7fffffffffffffffULL);
}

StatusOr<Session*> Server::OpenSession(SessionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  // Checked under mu_: Shutdown sets the flag before its retirement loop
  // takes the lock, so a session can never be inserted after that loop ran
  // (it would be orphaned — never rolled back, its metrics never merged).
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server shut down");
  }
  if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
    db_->metrics()->Add("server.admission.rejected_session_table_full", 1);
    return Status::Overloaded("session table full");
  }
  const int64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  if (options_.read_only) options.read_only = true;
  auto session =
      std::unique_ptr<Session>(new Session(this, id, options));
  Session* raw = session.get();
  sessions_[id] = std::move(session);
  db_->metrics()->Add("server.sessions.opened", 1);
  // Restart availability (DESIGN.md §12): sessions admitted while instant
  // recovery's sweep is still draining are the whole point — count them.
  RecoveryController* recovery = db_->recovery_controller();
  if (recovery != nullptr && !recovery->complete()) {
    db_->metrics()->Add("server.admission.during_recovery", 1);
  }
  db_->metrics()->Set("server.sessions.active",
                      static_cast<int64_t>(sessions_.size()));
  return raw;
}

Status Server::CloseSession(int64_t session_id) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("no such session");
    }
    session = std::move(it->second);
    sessions_.erase(it);
    db_->metrics()->Set("server.sessions.active",
                        static_cast<int64_t>(sessions_.size()));
  }
  // Refuse further admissions and wait for every statement already queued
  // or executing on this session to finish — destroying it any earlier
  // would let a scheduler worker run RunStatement on a freed object.
  session->CloseAndWaitIdle();
  if (session->in_txn()) (void)session->Rollback();
  table_locks_.ReleaseAll(session->id());
  // Fold the session's private shard into the database registry, following
  // the shard-and-merge metrics discipline (DESIGN.md §9).
  db_->metrics()->MergeFrom(*session->metrics());
  db_->metrics()->Add("server.sessions.closed", 1);
  return Status::OK();
}

int64_t Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

void Server::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  // 1. Stop admitting and wait for every in-flight statement to finish.
  scheduler_.Drain();
  // 2. Retire the sessions (rolling back open transactions and merging
  //    their metrics shards) now that no statement can be executing on
  //    their behalf. The objects stay alive so client pointers are safe.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& entry : sessions_) {
      Session* session = entry.second.get();
      if (session->in_txn()) (void)session->Rollback();
      table_locks_.ReleaseAll(session->id());
      db_->metrics()->MergeFrom(*session->metrics());
      db_->metrics()->Add("server.sessions.closed", 1);
      retired_.push_back(std::move(entry.second));
    }
    sessions_.clear();
    db_->metrics()->Set("server.sessions.active", 0);
  }
  // 3. Only then stop the transactional plane's background services (both
  //    Stops are idempotent, so a later ~Database is still safe).
  if (db_->checkpointer() != nullptr) db_->checkpointer()->Stop();
  if (db_->wal() != nullptr) db_->wal()->Stop();
  db_->metrics()->Add("server.shutdowns", 1);
}

}  // namespace mmdb
