#include "replica/replica.h"

#include <algorithm>
#include <utility>

#include "txn/recoverable_store.h"

namespace mmdb {

Replica::Replica(Database* db)
    : db_(db),
      counters_(db->metrics(), "replica",
                {{kAppliedRecords, "applied_records"},
                 {kAppliedTxns, "applied_txns"}, {kHorizonLsn, "horizon_lsn"},
                 {kLagLsn, "lag_lsn"}, {kInflightTxns, "inflight_txns"}}) {}

Status Replica::ApplyRecords(const std::vector<LogRecord>& batch,
                             Lsn read_upto, Lsn shipped_horizon) {
  std::unique_lock<std::mutex> lock(mu_);
  if (promoted_) {
    return Status::FailedPrecondition("replica was promoted");
  }
  RecoverableStore* store = db_->recoverable_store();
  for (const LogRecord& rec : batch) {
    counters_.Add(kAppliedRecords);
    switch (rec.type) {
      case LogRecordType::kBegin:
        inflight_[rec.txn_id];  // note the txn; updates may follow
        break;
      case LogRecordType::kUpdate:
        inflight_[rec.txn_id].push_back(
            PendingUpdate{rec.record_id, rec.new_value, rec.lsn});
        break;
      case LogRecordType::kCommit:
      case LogRecordType::kAbort: {
        // Install the transaction atomically. Aborts take the same path:
        // the primary logs compensation updates (old values, newest
        // first) before the kAbort record, so replaying the full buffer
        // in LSN order lands on the pre-image.
        auto it = inflight_.find(rec.txn_id);
        if (it != inflight_.end()) {
          for (const PendingUpdate& upd : it->second) {
            MMDB_RETURN_IF_ERROR(
                store->ApplyRecovery(upd.record_id, upd.value, upd.lsn));
          }
          inflight_.erase(it);
        }
        counters_.Add(kAppliedTxns);
        break;
      }
      case LogRecordType::kCheckpoint:
        break;  // backup end fences et al. — no state change
    }
  }
  // The shipper read [cursor, read_upto); everything sealed below
  // read_upto is now installed, so that is the committed-prefix horizon
  // reads may be served at. Buffered (unfinished) transactions are
  // invisible by construction.
  if (read_upto > applied_horizon_) applied_horizon_ = read_upto;
  if (shipped_horizon > shipped_horizon_) shipped_horizon_ = shipped_horizon;
  SetGaugesLocked();
  return Status::OK();
}

StatusOr<std::vector<std::string>> Replica::SnapshotRead(
    const std::vector<int64_t>& record_ids, Lsn* horizon) {
  std::unique_lock<std::mutex> lock(mu_);
  RecoverableStore* store = db_->recoverable_store();
  std::vector<std::string> values;
  values.reserve(record_ids.size());
  for (int64_t id : record_ids) {
    std::string value;
    MMDB_RETURN_IF_ERROR(store->ReadRecord(id, &value));
    values.push_back(std::move(value));
  }
  if (horizon != nullptr) *horizon = applied_horizon_;
  return values;
}

Lsn Replica::LagLsn() const {
  std::unique_lock<std::mutex> lock(mu_);
  return shipped_horizon_ > applied_horizon_
             ? shipped_horizon_ - applied_horizon_
             : 0;
}

Lsn Replica::AppliedHorizon() const {
  std::unique_lock<std::mutex> lock(mu_);
  return applied_horizon_;
}

Status Replica::Promote() {
  std::unique_lock<std::mutex> lock(mu_);
  if (promoted_) return Status::FailedPrecondition("already promoted");
  // In-flight buffers are transactions whose commit never shipped; on the
  // primary they were either rolled back or lost with it. The installed
  // committed prefix stands as the new primary's state.
  inflight_.clear();
  RecoverableStore* store = db_->recoverable_store();
  // Page-LSN stamps came from the PRIMARY's WAL; under this database's
  // own log they would overstate. Then persist the promoted image so the
  // new primary restarts from it rather than from an empty snapshot.
  store->ClearPageLsns();
  FirstUpdateTable* fut = db_->first_update_table();
  for (int64_t page : store->DirtyPages()) {
    MMDB_RETURN_IF_ERROR(store->CheckpointPage(page, fut, nullptr));
  }
  if (fut != nullptr) fut->Clear();
  promoted_ = true;
  SetGaugesLocked();
  return Status::OK();
}

void Replica::SetGaugesLocked() {
  counters_.Set(kHorizonLsn, applied_horizon_);
  counters_.Set(kLagLsn, shipped_horizon_ > applied_horizon_
                             ? shipped_horizon_ - applied_horizon_
                             : 0);
  counters_.Set(kInflightTxns, static_cast<int64_t>(inflight_.size()));
}

}  // namespace mmdb
