#include "txn/transaction_manager.h"

#include <algorithm>

#include "common/check.h"
#include "txn/mvcc.h"

namespace mmdb {

TransactionManager::TransactionManager(RecoverableStore* store,
                                       LockManager* locks, Wal* wal,
                                       FirstUpdateTable* fut,
                                       TxnId first_txn_id,
                                       MvccManager* versions,
                                       MetricsRegistry* metrics)
    : store_(store),
      locks_(locks),
      wal_(wal),
      fut_(fut),
      versions_(versions),
      counters_(metrics, "txn",
                {{kBegun, "begun"}, {kCommitted, "committed"},
                 {kAborted, "aborted"}, {kSnapshotBegun, "snapshot_begun"},
                 {kConflicts, "conflicts"}}) {
  next_txn_.store(first_txn_id);
}

TxnId TransactionManager::Begin() {
  const TxnId txn = next_txn_.fetch_add(1);
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn_id = txn;
  const Lsn begin_lsn = wal_->Append(std::move(rec));
  std::unique_lock<std::mutex> lock(mu_);
  TxnState state;
  state.begin_lsn = begin_lsn;
  active_[txn] = std::move(state);
  counters_.Add(kBegun);
  return txn;
}

TxnId TransactionManager::BeginSnapshotTxn() {
  MMDB_CHECK_MSG(versions_ != nullptr,
                 "BeginSnapshotTxn requires an MvccManager");
  const TxnId txn = next_txn_.fetch_add(1);
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn_id = txn;
  const Lsn begin_lsn = wal_->Append(std::move(rec));
  // Pin the read timestamp after the begin record so the snapshot is at
  // least as fresh as everything this txn could have observed beforehand.
  const uint64_t read_ts = versions_->BeginSnapshot();
  std::unique_lock<std::mutex> lock(mu_);
  TxnState state;
  state.mode = TxnMode::kSnapshot;
  state.begin_lsn = begin_lsn;
  state.read_ts = read_ts;
  active_[txn] = std::move(state);
  counters_.Add(kBegun);
  counters_.Add(kSnapshotBegun);
  return txn;
}

bool TransactionManager::LookupMode(TxnId txn, TxnMode* mode,
                                    uint64_t* read_ts) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) return false;
  *mode = it->second.mode;
  *read_ts = it->second.read_ts;
  return true;
}

Status TransactionManager::TrackClaim(TxnId txn, int64_t record_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    // The txn vanished between the claim and here; release the orphan
    // claim so the record does not stay owned forever.
    lock.unlock();
    versions_->AbortTxn(txn, {record_id});
    return Status::FailedPrecondition("transaction not active");
  }
  std::vector<int64_t>& claimed = it->second.claimed;
  if (std::find(claimed.begin(), claimed.end(), record_id) == claimed.end()) {
    claimed.push_back(record_id);
  }
  return Status::OK();
}

StatusOr<std::string> TransactionManager::Read(TxnId txn, int64_t record_id) {
  TxnMode mode;
  uint64_t read_ts;
  if (!LookupMode(txn, &mode, &read_ts)) {
    return Status::FailedPrecondition("transaction not active");
  }
  if (mode == TxnMode::kSnapshot) {
    // §6: no locks, no latches — pure visibility check at the pinned
    // read timestamp.
    return versions_->Read(read_ts, record_id);
  }
  std::vector<TxnId> deps;
  MMDB_RETURN_IF_ERROR(
      locks_->Acquire(txn, record_id, LockMode::kShared, &deps));
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::FailedPrecondition("transaction not active");
    }
    // Reading a pre-committed writer's data makes us its dependent (§5.2).
    it->second.deps.insert(it->second.deps.end(), deps.begin(), deps.end());
  }
  std::string value;
  MMDB_RETURN_IF_ERROR(store_->ReadRecord(record_id, &value));
  return value;
}

Status TransactionManager::Update(TxnId txn, int64_t record_id,
                                  std::string_view new_value) {
  TxnMode mode;
  uint64_t read_ts;
  if (!LookupMode(txn, &mode, &read_ts)) {
    return Status::FailedPrecondition("transaction not active");
  }

  std::vector<TxnId> deps;
  if (mode == TxnMode::kSnapshot) {
    // Claim-then-lock: the non-blocking ownership claim is the conflict
    // check (first writer wins); the record X lock merely keeps §5 2PL
    // readers from seeing our in-place value mid-flight. Claims never
    // block, so they can never complete a waits-for cycle.
    Status claim = versions_->ClaimWrite(txn, record_id, read_ts);
    if (!claim.ok()) {
      if (claim.code() == StatusCode::kConflict) counters_.Add(kConflicts);
      return claim;
    }
    MMDB_RETURN_IF_ERROR(TrackClaim(txn, record_id));
    MMDB_RETURN_IF_ERROR(
        locks_->Acquire(txn, record_id, LockMode::kExclusive, &deps));
  } else {
    // Lock-then-claim: 2PL writers serialize on the X lock; the claim then
    // only loses to a snapshot writer caught between its claim and its
    // lock acquisition.
    MMDB_RETURN_IF_ERROR(
        locks_->Acquire(txn, record_id, LockMode::kExclusive, &deps));
    if (versions_ != nullptr) {
      Status claim = versions_->ClaimWrite(txn, record_id,
                                           MvccManager::kNoSnapshotCheck);
      if (!claim.ok()) {
        if (claim.code() == StatusCode::kConflict) counters_.Add(kConflicts);
        return claim;
      }
      MMDB_RETURN_IF_ERROR(TrackClaim(txn, record_id));
    }
  }

  std::string old_value;
  MMDB_RETURN_IF_ERROR(store_->ReadRecord(record_id, &old_value));

  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = txn;
  rec.record_id = record_id;
  rec.old_value = old_value;
  rec.new_value.assign(new_value.data(), new_value.size());
  const Lsn lsn = wal_->Append(rec);

  MMDB_RETURN_IF_ERROR(store_->WriteRecord(record_id, new_value, lsn, fut_));

  std::unique_lock<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::FailedPrecondition("transaction not active");
  }
  it->second.deps.insert(it->second.deps.end(), deps.begin(), deps.end());
  it->second.undo.push_back(
      UndoEntry{record_id, std::move(old_value), std::string(new_value)});
  return Status::OK();
}

Status TransactionManager::Commit(TxnId txn) {
  TxnState state;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::FailedPrecondition("transaction not active");
    }
    state = std::move(it->second);
    active_.erase(it);
    if (state.begin_lsn != kInvalidLsn) finishing_.insert(state.begin_lsn);
  }
  std::sort(state.deps.begin(), state.deps.end());
  state.deps.erase(std::unique(state.deps.begin(), state.deps.end()),
                   state.deps.end());

  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn;
  // 1. Pre-commit: the commit record enters the log buffer.
  wal_->AppendCommit(std::move(rec), state.deps);
  // 1b. Stamp versions before releasing locks, so the commit timestamp
  // order respects serialization order (a dependent writer cannot even
  // acquire our locks, let alone claim our records, before this point).
  // Visibility follows §5.2 pre-commit: the new versions become readable
  // when the commit record is buffered, not when it is durable —
  // consistent with what lock-based readers observe.
  if (versions_ != nullptr && !state.claimed.empty()) {
    versions_->CommitTxn(txn, state.claimed);
  }
  if (versions_ != nullptr && state.mode == TxnMode::kSnapshot) {
    versions_->EndSnapshot(state.read_ts);
  }
  // 2. Locks release immediately — dependents may proceed.
  locks_->PreCommit(txn);
  // 3. Durability ("the user is not notified until...").
  wal_->WaitCommitDurable(txn);
  // 4. Finalize.
  locks_->FinalizeCommit(txn);
  {
    std::unique_lock<std::mutex> lock(mu_);
    EraseFinishingLocked(state.begin_lsn);
  }
  counters_.Add(kCommitted);
  if (commit_hook_) commit_hook_(txn);
  return Status::OK();
}

Status TransactionManager::Abort(TxnId txn) {
  TxnState state;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::FailedPrecondition("transaction not active");
    }
    state = std::move(it->second);
    active_.erase(it);
    if (state.begin_lsn != kInvalidLsn) finishing_.insert(state.begin_lsn);
  }
  // Compensation updates, newest first: restore old values in memory and
  // in the log, so recovery can simply replay aborted transactions.
  for (auto it = state.undo.rbegin(); it != state.undo.rend(); ++it) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn_id = txn;
    rec.record_id = it->record_id;
    rec.old_value = it->new_value;  // compensation: swap directions
    rec.new_value = it->old_value;
    const Lsn lsn = wal_->Append(rec);
    Status written =
        store_->WriteRecord(it->record_id, it->old_value, lsn, fut_);
    if (!written.ok()) {
      std::unique_lock<std::mutex> lock(mu_);
      EraseFinishingLocked(state.begin_lsn);
      return written;
    }
  }
  // Release MVCC claims only after the store holds the restored values:
  // readers that still see the pending pre-image node and readers that see
  // the store must agree.
  if (versions_ != nullptr && !state.claimed.empty()) {
    versions_->AbortTxn(txn, state.claimed);
  }
  if (versions_ != nullptr && state.mode == TxnMode::kSnapshot) {
    versions_->EndSnapshot(state.read_ts);
  }
  LogRecord abort_rec;
  abort_rec.type = LogRecordType::kAbort;
  abort_rec.txn_id = txn;
  // AppendCommit gives the abort record commit-like sealing semantics
  // (the stable log moves the txn's records to its output queue).
  wal_->AppendCommit(std::move(abort_rec), {});
  locks_->ReleaseAll(txn);
  {
    std::unique_lock<std::mutex> lock(mu_);
    EraseFinishingLocked(state.begin_lsn);
  }
  counters_.Add(kAborted);
  return Status::OK();
}

void TransactionManager::EraseFinishingLocked(Lsn begin_lsn) {
  auto it = finishing_.find(begin_lsn);
  if (it != finishing_.end()) finishing_.erase(it);
}

Lsn TransactionManager::OldestActiveBeginLsn() const {
  std::unique_lock<std::mutex> lock(mu_);
  Lsn oldest = finishing_.empty() ? kInvalidLsn : *finishing_.begin();
  for (const auto& [txn, state] : active_) {
    if (state.begin_lsn == kInvalidLsn) continue;
    if (oldest == kInvalidLsn || state.begin_lsn < oldest) {
      oldest = state.begin_lsn;
    }
  }
  return oldest;
}

}  // namespace mmdb
