#ifndef MMDB_BACKUP_HOT_BACKUP_H_
#define MMDB_BACKUP_HOT_BACKUP_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/log_record.h"
#include "txn/recoverable_store.h"
#include "txn/transaction_manager.h"

namespace mmdb {

/// One physical backup of the record plane (DESIGN.md §13): a fuzzy
/// page-by-page copy of the live memory image, the log window that makes
/// it consistent, and the LSN fence the restored image lands on. Follows
/// the percona-xtrabackup recipe — copy pages while the database serves
/// traffic, then apply the WAL tail — adapted to value logging: instead of
/// page-granular redo with page-LSN fences, restore re-applies the §5
/// winner/loser resolution of the whole captured window over the image,
/// which is idempotent (the image never holds state newer than the
/// window's latest winner).
struct BackupImage {
  int64_t backup_id = 0;
  /// Backup this increment chains onto; -1 for a full backup.
  int64_t base_backup_id = -1;

  /// First LSN of the captured log window. Full backups start at
  /// min(durable horizon, oldest active txn's begin record) when the copy
  /// began; incrementals start exactly at their base's end_lsn, so a chain
  /// carries one gapless window from the full backup's capture point.
  Lsn capture_from = 0;
  /// Exclusive end fence: the restored image is the committed state at
  /// this LSN. Assigned by an end-marker log record appended after the
  /// last page copy, so every value visible in the copied pages has its
  /// log record below the fence.
  Lsn end_lsn = 0;

  // Source geometry — restore refuses a mismatched destination.
  int64_t num_pages = 0;
  int64_t page_size = 0;
  int64_t num_records = 0;
  int32_t record_size = 0;

  /// page id -> page bytes. Full: every page. Incremental: only pages
  /// whose page LSN reached the base's end_lsn (dirtied, replayed, or
  /// healed since the base).
  std::map<int64_t, std::string> pages;
  /// The captured window [capture_from, end_lsn), LSN order. Gaps are
  /// records that never became durable (dropped by a crash) — they were
  /// rolled back at the primary too.
  std::vector<LogRecord> log_window;

  bool is_full() const { return base_backup_id < 0; }
};

struct BackupOptions {
  /// Chain onto this earlier backup (incremental: only pages changed
  /// since it are copied). -1 = full backup.
  int64_t base_backup_id = -1;
};

struct RestoreOptions {
  /// Point-in-time target: restore the committed state as of this
  /// transaction's commit record (inclusive). Works for record-plane txn
  /// ids and SQL statement commit ids alike — both commit through the same
  /// log. kInvalidTxn = restore to the last chain member's end_lsn. A
  /// target past the chain's end needs `extra_log` to cover the distance.
  TxnId target_commit_txn = kInvalidTxn;
  /// Additional primary log records past the chain's windows (e.g.
  /// wal->ReadDurableRange(chain_end, horizon)) for point-in-time restore
  /// beyond the last backup.
  std::vector<LogRecord> extra_log;
};

/// Produces hot backups of one primary's record plane and restores chains
/// of them into a fresh store. Thread-safe; backups run concurrently with
/// foreground transactions (the only lock shared with traffic is the
/// store's page mutex, held per page copy).
///
/// Counts "backup.*" into the registry passed at construction (a private
/// one when null).
class BackupManager {
 public:
  /// All borrowed; `tm` may be null (then no active-txn lower bound is
  /// applied — only safe when no transactions run during the backup).
  BackupManager(RecoverableStore* store, Wal* wal, TransactionManager* tm,
                MetricsRegistry* metrics = nullptr);

  /// Takes an online backup: pages are copied from the live image while
  /// sessions run; the log window that repairs cross-page fuzziness is
  /// captured after an end-marker record is durable. FailedPrecondition
  /// when the WAL implementation does not support log shipping; NotFound
  /// when an incremental names an unknown base.
  StatusOr<BackupImage> RunHotBackup(const BackupOptions& options = {});

  /// Restores a full -> incremental -> ... chain into `dest`: overlays the
  /// members' pages (later members win), merges their log windows, runs
  /// the §5/§12 winner/loser resolution cut at the restore target, applies
  /// the resolved endpoints, clears page-LSN stamps (they belong to the
  /// source's WAL epoch) and checkpoints the restored image through `fut`
  /// (may be null). `dest` must match the source geometry and must not be
  /// serving traffic.
  static Status RestoreChain(const std::vector<const BackupImage*>& chain,
                             RecoverableStore* dest, FirstUpdateTable* fut,
                             const RestoreOptions& options = {});

  /// Known backup ids and their end LSNs (for incremental chaining).
  StatusOr<Lsn> EndLsnOf(int64_t backup_id) const;

  /// Re-points the active-transaction source after the owner replaces its
  /// TransactionManager (Database::Recover). Not concurrent with
  /// RunHotBackup; the backup id map survives.
  void set_txn_manager(TransactionManager* tm) { tm_ = tm; }

  MetricsRegistry* metrics() const { return counters_.registry(); }

 private:
  RecoverableStore* store_;
  Wal* wal_;
  TransactionManager* tm_;

  std::atomic<int64_t> next_backup_id_{1};
  mutable std::mutex mu_;
  std::map<int64_t, Lsn> end_lsns_;  ///< backup id -> end fence

  enum Counter { kBackupsTaken, kIncrementalBackups, kPagesCopied,
                 kPagesSkipped, kLogRecordsCaptured, kLastEndLsn,
                 kNumCounters };
  MetricCounters<kNumCounters> counters_;
};

}  // namespace mmdb

#endif  // MMDB_BACKUP_HOT_BACKUP_H_
