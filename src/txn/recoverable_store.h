#ifndef MMDB_TXN_RECOVERABLE_STORE_H_
#define MMDB_TXN_RECOVERABLE_STORE_H_

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/simulated_disk.h"
#include "sim/stable_memory.h"
#include "storage/page_file.h"
#include "txn/log_record.h"

namespace mmdb {

/// §5.5's stable table: for every page, the smallest LSN among the
/// updates since the page was last checkpointed ("A table can be placed
/// in stable memory to record which pages have been updated since their
/// last checkpoint, and the log record id of the first operation that
/// updated the page").
/// MinLsn() is the point in the log from which recovery must commence.
///
/// The table guards itself against stable-memory bit flips with an
/// incremental 64-bit checksum (XOR of a per-slot mix), updated in O(1) per
/// mutation and stored in the same stable region. Recovery calls Verify()
/// before trusting the table; on mismatch it falls back to a full log scan
/// (degraded mode) — a wrong first-update LSN could silently skip redo,
/// which is far worse than a slow restart.
class FirstUpdateTable {
 public:
  FirstUpdateTable(StableMemory* stable, int64_t num_pages,
                   const std::string& region_name = "first_update_table");

  /// Notes an update of `page` at `lsn` (no-op for kInvalidLsn): the entry
  /// becomes min(current, lsn). Updates append their log records and write
  /// the store with no lock across the two, so after a reset they can
  /// arrive here out of LSN order; keeping the first call's LSN would let
  /// recovery skip an earlier update's redo. A failed checkpoint write
  /// re-arms the page's pre-reset entry through this too.
  void RecordUpdate(int64_t page, Lsn lsn);

  /// Checkpoint of `page` completed: reset its update status.
  void ResetPage(int64_t page);

  /// First-update LSN of `page`, or kInvalidLsn when clean.
  Lsn Get(int64_t page) const;

  /// "The oldest entry in the table determines the point in the log from
  /// which recovery should commence." kInvalidLsn when everything clean.
  Lsn MinLsn() const;

  /// True when the slots still match the incremental checksum. False means
  /// the stable region was corrupted and the table must not be trusted.
  bool Verify() const;

  /// Resets every slot to clean and recomputes the checksum from scratch.
  /// Backup restore and replica promotion call this once they have
  /// checkpointed the image they installed: no entry of the store's
  /// earlier life still applies.
  void Clear();

  /// Recomputes the checksum from the slots as they stand. Recovery calls
  /// this once it has checkpointed every page with an entry after finding
  /// the table corrupt: the incremental checksum cannot be repaired by
  /// per-slot updates once the region was corrupted. Writers may run.
  void RebuildChecksum();

  int64_t num_pages() const { return num_pages_; }

 private:
  Lsn* Slots();
  const Lsn* Slots() const;
  uint64_t* ChecksumCell();
  const uint64_t* ChecksumCell() const;
  /// Contribution of (page, lsn) to the XOR checksum; 0 for clean slots.
  static uint64_t Token(int64_t page, Lsn lsn);
  /// The checksum the slots should carry. Caller holds mu_.
  uint64_t SlotsChecksum() const;
  /// Sets the slot and maintains the checksum. Caller holds mu_.
  void SetSlot(int64_t page, Lsn lsn);

  StableMemory* stable_;
  std::string region_;
  int64_t num_pages_;
  mutable std::mutex mu_;
};

/// Consulted on every record access while instant recovery is in progress
/// (DESIGN.md §12). Installed by the RecoveryController after the analysis
/// phase; detached once the sweep has drained. The guard runs BEFORE the
/// store's mutex is taken, so it may itself call back into the store (via
/// ApplyRecovery) to restore the record on demand.
class RecordAccessGuard {
 public:
  virtual ~RecordAccessGuard() = default;

  /// Called with the record about to be read or written. Returns OK when
  /// the record is (now) restored; kRecovering when restoring it would
  /// exceed the on-demand replay budget (the access is refused with no
  /// side effects).
  virtual Status OnAccess(int64_t record_id) = 0;
};

/// The §5 database: a fixed array of fixed-size records kept ENTIRELY in
/// (volatile) main memory, with a page-structured snapshot on disk.
/// Transactions mutate the memory image through the TransactionManager;
/// the Checkpointer sweeps dirty pages to the snapshot; SimulateCrash wipes
/// the memory image, after which RecoverStore rebuilds it from snapshot +
/// log.
///
/// Robustness: every snapshot page carries a CRC-32C kept in a separate
/// checksum file (data pages can be 100% full, so the checksum is
/// out-of-band), written through an in-memory write-through cache so a
/// checkpoint costs one extra page write, not a read-modify-write. Snapshot
/// I/O is retried on transient faults; pages that stay unreadable or fail
/// their checksum at load are zero-filled and reported so recovery can
/// rebuild them from the log.
class RecoverableStore {
 public:
  RecoverableStore(SimulatedDisk* disk, int64_t num_records,
                   int32_t record_size, int64_t page_size = 4096);

  int64_t num_records() const { return num_records_; }
  int32_t record_size() const { return record_size_; }
  int64_t num_pages() const { return num_pages_; }
  int64_t page_size() const { return page_size_; }
  int32_t records_per_page() const { return records_per_page_; }
  int64_t PageOf(int64_t record_id) const {
    return record_id / records_per_page_;
  }

  bool loaded() const { return loaded_; }

  /// Copies the record into `out`. FailedPrecondition when crashed.
  Status ReadRecord(int64_t record_id, std::string* out) const;

  /// Overwrites the record, marking its page dirty and recording the LSN in
  /// the first-update table (if provided).
  Status WriteRecord(int64_t record_id, std::string_view value, Lsn lsn,
                     FirstUpdateTable* fut);

  /// Installs (or replaces) the access guard consulted by every
  /// ReadRecord/WriteRecord. All record access paths — 2PL reads, MVCC
  /// version materialisation, SQL autocommit — funnel through those two
  /// entry points, so this one hook covers the whole surface.
  void set_access_guard(RecordAccessGuard* guard) {
    access_guard_.store(guard, std::memory_order_release);
  }
  /// Detaches the guard iff it is still `expected` — a retired controller
  /// must not clobber the guard a newer recovery installed.
  void ClearAccessGuard(RecordAccessGuard* expected) {
    access_guard_.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel);
  }

  /// Replay write used by recovery itself: bypasses the access guard (the
  /// guard's own replay must not recurse), never enters the first-update
  /// table and carries no WAL fence (the value comes FROM the durable log).
  /// Marks the page dirty so the end-of-recovery checkpoint persists it.
  /// When `lsn` is given it raises the page LSN, so incremental backups
  /// taken after recovery still see the page as changed (the log record it
  /// came from is durable, so no WAL fence is introduced).
  Status ApplyRecovery(int64_t record_id, std::string_view value,
                       Lsn lsn = kInvalidLsn);

  /// Page LSN: the highest log LSN whose update is reflected in the page's
  /// in-memory image. Volatile and meaningful only within this store's own
  /// WAL epoch — restore/promote must ClearPageLsns() before serving under
  /// a different log. kInvalidLsn when the page was never stamped.
  Lsn PageLsn(int64_t page) const;

  /// Raises the page LSN to at least `lsn`. Recovery uses it to cover
  /// pages it healed without replaying (quarantined pages rebuilt by the
  /// sweep's final checkpoint); the replica uses it while applying shipped
  /// records.
  void StampPageLsn(int64_t page, Lsn lsn);

  /// Drops every page-LSN stamp. Required when an image produced under one
  /// WAL epoch starts serving under another (backup restore, replica
  /// promotion): a foreign LSN would overstate against the new log.
  void ClearPageLsns();

  /// Atomic copy of one page's bytes and its page LSN (hot backup reads
  /// the live image page by page; cross-page consistency is repaired by
  /// the captured WAL window at restore time).
  Status CopyPage(int64_t page, std::string* out, Lsn* page_lsn) const;

  /// Overwrites a whole page of the memory image from a backup, marking it
  /// dirty so the post-restore checkpoint persists it.
  Status InstallPage(int64_t page, std::string_view bytes);

  /// Pages currently dirty (updated since their last checkpoint).
  std::vector<int64_t> DirtyPages() const;
  int64_t NumDirtyPages() const;

  /// Writes one page of the memory image to the disk snapshot (sequential
  /// I/O — "the disk arms are kept as busy as possible"), clears its dirty
  /// bit, and resets its first-update entry. When `wal` is given, the WAL
  /// rule is enforced first: all log records up to the page's last update
  /// LSN must be durable before the page may reach disk. Transient write
  /// faults are retried; if the bound is exhausted the page is re-marked
  /// dirty, its first-update entry is restored, and kRetryExhausted is
  /// returned — nothing is lost, the next checkpoint retries.
  Status CheckpointPage(int64_t page, FirstUpdateTable* fut,
                        class Wal* wal = nullptr);

  /// Wipes volatile memory, as a power failure would. The snapshot (disk)
  /// and anything in StableMemory survive.
  void SimulateCrash();

  /// Reloads the entire memory image from the disk snapshot. Pages that
  /// stay unreadable after bounded retries, or whose checksum does not
  /// match, are QUARANTINED: zero-filled in memory and appended to
  /// `quarantined` (when non-null) so recovery can rebuild them from the
  /// log instead of trusting garbage. Only I/O-level failures beyond the
  /// retry bound on the checksum file itself abort the load.
  Status LoadSnapshot(std::vector<int64_t>* quarantined = nullptr);

  /// File ids of the snapshot and its checksum file — lets tests and
  /// benches aim targeted faults (e.g. MarkPermanentError) at them.
  SimulatedDisk::FileId snapshot_file_id() const { return snapshot_.id(); }
  SimulatedDisk::FileId snapshot_crc_file_id() const {
    return snapshot_crc_.id();
  }

  struct Stats {
    int64_t updates = 0;
    int64_t pages_checkpointed = 0;
    int64_t snapshot_pages_read = 0;
    int64_t io_retries = 0;         ///< transient snapshot I/O errors retried
    int64_t pages_quarantined = 0;  ///< zero-filled at load (bad read or CRC)
  };
  Stats stats() const;

 private:
  char* RecordPtr(int64_t record_id);
  const char* RecordPtr(int64_t record_id) const;

  /// Bounded-retry wrappers around snapshot I/O; count into io_retries_.
  Status ReadPageWithRetry(PageFile* file, int64_t page, void* out);
  Status WritePageWithRetry(PageFile* file, int64_t page, const void* data);

  /// Writes crc_cache_[...] entries covering data page `page` back to the
  /// checksum file (whole checksum page, write-through). Caller holds
  /// crc_mu_.
  Status FlushCrcEntry(int64_t page);

  SimulatedDisk* disk_;
  int64_t num_records_;
  int32_t record_size_;
  int64_t page_size_;
  int32_t records_per_page_;
  int64_t num_pages_;
  int32_t crc_entries_per_page_;

  mutable std::mutex mu_;
  std::vector<char> memory_;
  std::set<int64_t> dirty_pages_;
  std::vector<Lsn> last_update_lsn_;  ///< per page, for the WAL rule
  bool loaded_ = true;
  PageFile snapshot_;
  PageFile snapshot_crc_;
  /// Write-through cache of the checksum file (volatile; rebuilt from disk
  /// by LoadSnapshot after a crash).
  std::mutex crc_mu_;
  std::vector<uint32_t> crc_cache_;
  Stats stats_;
  std::atomic<int64_t> io_retries_{0};
  std::atomic<int64_t> pages_quarantined_{0};
  std::atomic<RecordAccessGuard*> access_guard_{nullptr};
};

}  // namespace mmdb

#endif  // MMDB_TXN_RECOVERABLE_STORE_H_
