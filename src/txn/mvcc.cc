#include "txn/mvcc.h"

#include <utility>

#include "common/check.h"
#include "txn/log_record.h"

namespace mmdb {

MvccManager::MvccManager(RecoverableStore* store, MetricsRegistry* metrics)
    : store_(store),
      chains_(store->num_records()),
      counters_(metrics, "mvcc",
                {{kVersionsStored, "versions_stored"},
                 {kVersionsGced, "versions_gced"}, {kChainReads, "chain_reads"},
                 {kDirectReads, "direct_reads"}, {kConflicts, "conflicts"},
                 {kCommits, "commits"}, {kAborts, "aborts"}}) {}

uint64_t MvccManager::BeginSnapshot() {
  std::unique_lock<std::mutex> lock(ts_mu_);
  const uint64_t read_ts = commit_ts_;
  active_snapshots_.insert(read_ts);
  return read_ts;
}

void MvccManager::EndSnapshot(uint64_t read_ts) {
  std::unique_lock<std::mutex> lock(ts_mu_);
  auto it = active_snapshots_.find(read_ts);
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
}

StatusOr<std::string> MvccManager::Read(uint64_t read_ts, int64_t record_id) {
  if (record_id < 0 || record_id >= chains_.num_records()) {
    return Status::OutOfRange("record id out of range: " +
                              std::to_string(record_id));
  }
  std::unique_lock<std::mutex> lock(chains_.stripe(record_id));
  const RecordVersions& rv = chains_.slot(record_id);
  // Unowned + old enough: the in-place value IS the visible version. The
  // stripe excludes claim/commit/abort transitions, and the store is only
  // written between claim and commit/abort, so it holds committed data.
  if (rv.owner_txn == RecordVersions::kNoOwner &&
      read_ts >= rv.newest_begin) {
    std::string value;
    MMDB_RETURN_IF_ERROR(store_->ReadRecord(record_id, &value));
    counters_.Add(kDirectReads);
    return value;
  }
  // Otherwise the newest chain node with begin <= read_ts is visible: an
  // end of kPendingTs marks the pre-image of an in-flight writer, which is
  // still the newest COMMITTED value.
  for (const VersionNode* v = rv.history.get(); v != nullptr;
       v = v->next.get()) {
    if (v->begin <= read_ts) {
      counters_.Add(kChainReads);
      return v->value;
    }
  }
  return Status::Internal("no version of record " +
                          std::to_string(record_id) +
                          " retained for read timestamp " +
                          std::to_string(read_ts));
}

Status MvccManager::ClaimWrite(TxnId txn, int64_t record_id,
                               uint64_t snapshot_read_ts) {
  if (record_id < 0 || record_id >= chains_.num_records()) {
    return Status::OutOfRange("record id out of range: " +
                              std::to_string(record_id));
  }
  std::unique_lock<std::mutex> lock(chains_.stripe(record_id));
  RecordVersions& rv = chains_.slot(record_id);
  if (rv.owner_txn != RecordVersions::kNoOwner) {
    if (rv.owner_txn == txn) return Status::OK();
    counters_.Add(kConflicts);
    return Status::Conflict("record " + std::to_string(record_id) +
                            " owned by writer " +
                            std::to_string(rv.owner_txn));
  }
  if (snapshot_read_ts != kNoSnapshotCheck &&
      rv.newest_begin > snapshot_read_ts) {
    counters_.Add(kConflicts);
    return Status::Conflict(
        "record " + std::to_string(record_id) + " committed at ts " +
        std::to_string(rv.newest_begin) + " > snapshot read ts " +
        std::to_string(snapshot_read_ts) + " (first writer wins)");
  }
  // Capture the committed pre-image while the stripe excludes every other
  // claim: the store cannot be mid-write here (writers only modify it while
  // owning the record).
  auto node = std::make_unique<VersionNode>();
  node->begin = rv.newest_begin;
  node->end = kPendingTs;
  MMDB_RETURN_IF_ERROR(store_->ReadRecord(record_id, &node->value));
  node->next = std::move(rv.history);
  rv.history = std::move(node);
  rv.owner_txn = txn;
  counters_.Add(kVersionsStored);
  return Status::OK();
}

uint64_t MvccManager::CommitTxn(TxnId txn,
                                const std::vector<int64_t>& record_ids) {
  // ts_mu_ spans the stamping so BeginSnapshot can never observe a commit
  // timestamp whose records are only half-sealed.
  std::unique_lock<std::mutex> lock(ts_mu_);
  const uint64_t ts = ++commit_ts_;
  for (int64_t record_id : record_ids) {
    std::unique_lock<std::mutex> stripe(chains_.stripe(record_id));
    RecordVersions& rv = chains_.slot(record_id);
    if (rv.owner_txn != txn) continue;  // duplicate id already stamped
    if (rv.history != nullptr && rv.history->end == kPendingTs) {
      rv.history->end = ts;
    }
    rv.newest_begin = ts;
    rv.owner_txn = RecordVersions::kNoOwner;
  }
  counters_.Add(kCommits);
  return ts;
}

void MvccManager::AbortTxn(TxnId txn,
                           const std::vector<int64_t>& record_ids) {
  for (int64_t record_id : record_ids) {
    std::unique_lock<std::mutex> stripe(chains_.stripe(record_id));
    RecordVersions& rv = chains_.slot(record_id);
    if (rv.owner_txn != txn) continue;
    // The caller restored the store's in-place value, so the pending
    // pre-image node is now redundant: unlink it.
    if (rv.history != nullptr && rv.history->end == kPendingTs) {
      rv.history = std::move(rv.history->next);
    }
    rv.owner_txn = RecordVersions::kNoOwner;
  }
  counters_.Add(kAborts);
}

uint64_t MvccManager::GcHorizon() const {
  std::unique_lock<std::mutex> lock(ts_mu_);
  return active_snapshots_.empty() ? commit_ts_ : *active_snapshots_.begin();
}

int64_t MvccManager::Gc() {
  const uint64_t horizon = GcHorizon();
  int64_t removed = 0;
  for (int64_t r = 0; r < chains_.num_records(); ++r) {
    std::unique_lock<std::mutex> stripe(chains_.stripe(r));
    RecordVersions& rv = chains_.slot(r);
    // A node with end <= horizon is invisible to every open and future
    // snapshot (a newer version covers them all); it and everything older
    // can go. Pending nodes (end == kPendingTs) never qualify.
    std::unique_ptr<VersionNode>* link = &rv.history;
    while (*link != nullptr) {
      if ((*link)->end != kPendingTs && (*link)->end <= horizon) {
        for (VersionNode* v = link->get(); v != nullptr; v = v->next.get()) {
          ++removed;
        }
        link->reset();
        break;
      }
      link = &(*link)->next;
    }
  }
  counters_.Add(kVersionsGced, removed);
  return removed;
}

uint64_t MvccManager::current_ts() const {
  std::unique_lock<std::mutex> lock(ts_mu_);
  return commit_ts_;
}

}  // namespace mmdb
