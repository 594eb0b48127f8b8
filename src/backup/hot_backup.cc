#include "backup/hot_backup.h"

#include <algorithm>

#include "common/check.h"
#include "txn/log_manager.h"
#include "txn/recovery.h"

namespace mmdb {

BackupManager::BackupManager(RecoverableStore* store, Wal* wal,
                             TransactionManager* tm, MetricsRegistry* metrics)
    : store_(store),
      wal_(wal),
      tm_(tm),
      counters_(metrics, "backup",
                {{kBackupsTaken, "backups_taken"},
                 {kIncrementalBackups, "incremental_backups"},
                 {kPagesCopied, "pages_copied"},
                 {kPagesSkipped, "pages_skipped"},
                 {kLogRecordsCaptured, "log_records_captured"},
                 {kLastEndLsn, "last_end_lsn"}}) {}

StatusOr<Lsn> BackupManager::EndLsnOf(int64_t backup_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = end_lsns_.find(backup_id);
  if (it == end_lsns_.end()) return Status::NotFound("unknown backup id");
  return it->second;
}

StatusOr<BackupImage> BackupManager::RunHotBackup(
    const BackupOptions& options) {
  BackupImage img;
  img.backup_id = next_backup_id_.fetch_add(1);
  img.base_backup_id = options.base_backup_id;
  img.num_pages = store_->num_pages();
  img.page_size = store_->page_size();
  img.num_records = store_->num_records();
  img.record_size = store_->record_size();

  // Where the log window must start.
  //
  // Full: every transaction that finished before this point has all its
  // memory writes in the image (Update applies in place before the commit
  // record appends); anything else began at or after min(durable horizon,
  // oldest active begin), so its updates land inside the window.
  //
  // Incremental: exactly the base's end fence. The chain's merged window
  // is then a gapless log suffix from the full backup's capture point, so
  // winner/loser classification at restore is exact — a transaction whose
  // updates sit in one member's window and whose commit lands in a later
  // member's is still recognized as a winner.
  Lsn base_end = kInvalidLsn;
  if (!img.is_full()) {
    MMDB_ASSIGN_OR_RETURN(base_end, EndLsnOf(options.base_backup_id));
    img.capture_from = base_end;
  } else {
    Lsn from = wal_->DurableHorizon();
    if (tm_ != nullptr) {
      const Lsn oldest = tm_->OldestActiveBeginLsn();
      if (oldest != kInvalidLsn && oldest < from) from = oldest;
    }
    img.capture_from = from;
  }

  // Fuzzy page copy: one page at a time off the live image. Sessions keep
  // running; a page updated after its copy is repaired by the window.
  int64_t copied = 0;
  int64_t skipped = 0;
  for (int64_t page = 0; page < store_->num_pages(); ++page) {
    Lsn page_lsn = kInvalidLsn;
    if (!img.is_full()) {
      page_lsn = store_->PageLsn(page);
      if (page_lsn == kInvalidLsn || page_lsn < base_end) {
        ++skipped;  // unchanged since the base backup
        continue;
      }
    }
    std::string bytes;
    MMDB_RETURN_IF_ERROR(store_->CopyPage(page, &bytes, &page_lsn));
    img.pages.emplace(page, std::move(bytes));
    ++copied;
  }

  // End fence: a marker appended AFTER the last copy. Every value visible
  // in a copied page comes from a log record assigned before the marker,
  // so the window [capture_from, end_lsn) plus the image determines the
  // committed state at end_lsn.
  LogRecord marker;
  marker.type = LogRecordType::kCheckpoint;
  marker.txn_id = -1;
  img.end_lsn = wal_->Append(std::move(marker));
  wal_->WaitLsnDurable(img.end_lsn);
  if (wal_->DurableHorizon() <= 0) {
    return Status::FailedPrecondition(
        "wal implementation does not support log shipping");
  }
  img.log_window = wal_->ReadDurableRange(img.capture_from, img.end_lsn);

  {
    std::unique_lock<std::mutex> lock(mu_);
    end_lsns_[img.backup_id] = img.end_lsn;
    counters_.Set(kLastEndLsn, img.end_lsn);
  }
  counters_.Add(kBackupsTaken);
  if (!img.is_full()) counters_.Add(kIncrementalBackups);
  counters_.Add(kPagesCopied, copied);
  counters_.Add(kPagesSkipped, skipped);
  counters_.Add(kLogRecordsCaptured,
                static_cast<int64_t>(img.log_window.size()));
  return img;
}

Status BackupManager::RestoreChain(
    const std::vector<const BackupImage*>& chain, RecoverableStore* dest,
    FirstUpdateTable* fut, const RestoreOptions& options) {
  if (chain.empty()) return Status::InvalidArgument("empty backup chain");
  if (!chain[0]->is_full()) {
    return Status::InvalidArgument("chain must start with a full backup");
  }
  for (size_t i = 0; i < chain.size(); ++i) {
    const BackupImage& img = *chain[i];
    if (i > 0 && img.base_backup_id != chain[i - 1]->backup_id) {
      return Status::InvalidArgument("broken backup chain");
    }
    if (img.num_pages != dest->num_pages() ||
        img.page_size != dest->page_size() ||
        img.num_records != dest->num_records() ||
        img.record_size != dest->record_size()) {
      return Status::InvalidArgument("backup/destination geometry mismatch");
    }
  }

  // Merge the chain's windows (gapless by construction; the map dedupes
  // the members' shared markers) plus any extra tail the caller supplies
  // for point-in-time restore past the chain's end.
  std::map<Lsn, LogRecord> merged;
  for (const BackupImage* img : chain) {
    for (const LogRecord& rec : img->log_window) merged.emplace(rec.lsn, rec);
  }
  for (const LogRecord& rec : options.extra_log) merged.emplace(rec.lsn, rec);

  // The cut: default is the chain's end; a point-in-time target cuts just
  // past its commit record, rolling every later (or unfinished)
  // transaction back.
  Lsn cut = chain.back()->end_lsn;
  if (options.target_commit_txn != kInvalidTxn) {
    Lsn commit_lsn = kInvalidLsn;
    for (const auto& [lsn, rec] : merged) {
      if (rec.txn_id == options.target_commit_txn &&
          rec.type == LogRecordType::kCommit) {
        commit_lsn = lsn;
        break;
      }
    }
    if (commit_lsn == kInvalidLsn) {
      return Status::NotFound("target commit not in captured log");
    }
    cut = commit_lsn + 1;
  }
  // Pages copied by a member whose fence is past the cut may already hold
  // state newer than the target, and the resolution only overwrites
  // records with updates BELOW the cut — so such members must not
  // contribute pages. The full backup itself must sit at or before the
  // cut for the same reason.
  if (cut < chain[0]->end_lsn) {
    return Status::InvalidArgument(
        "restore target predates the full backup's end fence");
  }

  // Overlay pages: full first, then each increment at or before the cut.
  for (const BackupImage* img : chain) {
    if (img->end_lsn > cut && !img->is_full()) continue;
    for (const auto& [page, bytes] : img->pages) {
      MMDB_RETURN_IF_ERROR(dest->InstallPage(page, bytes));
    }
  }

  // The §5 resolution restart analysis runs (ResolveLog), over the merged
  // window cut at the target. Re-applying the whole window over the image
  // is idempotent: every update a copied page already reflects is in the
  // window (or predates it entirely), so the resolved endpoint always lands
  // on top.
  std::vector<LogRecord> window;
  window.reserve(merged.size());
  for (auto& [lsn, rec] : merged) window.push_back(std::move(rec));
  MMDB_ASSIGN_OR_RETURN(LogResolution resolved, ResolveLog(window, cut));
  for (const auto& [record_id, endpoint] : resolved.records) {
    MMDB_RETURN_IF_ERROR(dest->ApplyRecovery(record_id, endpoint.image));
  }

  // The stamps riding along in ApplyRecovery/InstallPage belong to the
  // SOURCE's WAL epoch; under the destination's own log they would
  // overstate. Drop them, then persist the restored image.
  dest->ClearPageLsns();
  for (int64_t page : dest->DirtyPages()) {
    MMDB_RETURN_IF_ERROR(dest->CheckpointPage(page, fut, nullptr));
  }
  if (fut != nullptr) fut->Clear();
  return Status::OK();
}

}  // namespace mmdb
