#ifndef MMDB_TXN_TRANSACTION_MANAGER_H_
#define MMDB_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/lock_manager.h"
#include "txn/log_manager.h"
#include "txn/recoverable_store.h"

namespace mmdb {

class MvccManager;

/// Concurrency-control mode of one transaction (DESIGN.md §11).
enum class TxnMode {
  /// §5 strict two-phase locking: S-lock reads, X-lock writes, and the
  /// pre-commit protocol. Serializable.
  kTwoPhaseLocking,
  /// §6 snapshot isolation over the MVCC version chains: reads are
  /// lock-free visibility checks against the transaction's pinned read
  /// timestamp; writes claim per-record ownership (first writer wins,
  /// kConflict on loss) and never take table-granularity locks.
  kSnapshot,
};

/// Ties §5 together: strict two-phase locking against the LockManager,
/// old/new-value logging through the Wal, in-place updates to the
/// memory-resident RecoverableStore, and the pre-commit protocol:
///
///   Commit(T):
///     1. append T's commit record (with its dependency list) to the log
///        buffer — T is now PRE-COMMITTED;
///     2. stamp T's MVCC versions with its commit timestamp and release
///        T's locks (others may read its dirty data, becoming dependents);
///     3. wait until the commit record is durable;
///     4. finalize: drop T from the lock table's pre-committed sets and
///        notify the "user".
///
/// Aborts write compensation updates (old values restored) followed by an
/// abort record, so recovery can treat aborted transactions as replayable
/// winners and reserve undo processing for transactions in flight at the
/// crash.
///
/// With an MvccManager attached, transactions begun via BeginSnapshotTxn
/// run at snapshot isolation: reads resolve against the version chains at
/// the transaction's read timestamp without locking, and updates claim
/// per-record write ownership (kConflict when beaten) before taking the
/// record X lock that keeps 2PL readers honest.
///
/// Counts "txn.*" into the registry passed at construction (a private one
/// when null).
class TransactionManager {
 public:
  /// `first_txn_id` must exceed every transaction id in the existing log
  /// (post-recovery restarts pass RecoveryStats::max_txn_id + 1 so new
  /// transactions cannot be confused with pre-crash ones). When `versions`
  /// is supplied, updates feed its version chains so lock-free snapshot
  /// readers and snapshot transactions can run alongside (§6 / mvcc.h).
  TransactionManager(RecoverableStore* store, LockManager* locks, Wal* wal,
                     FirstUpdateTable* fut, TxnId first_txn_id = 1,
                     MvccManager* versions = nullptr,
                     MetricsRegistry* metrics = nullptr);

  /// Starts a 2PL transaction (writes its begin record).
  TxnId Begin();

  /// Starts a snapshot-isolation transaction with a pinned read timestamp.
  /// Requires an attached MvccManager.
  TxnId BeginSnapshotTxn();

  /// 2PL: S-locks and reads the record. Snapshot: lock-free visibility
  /// read at the transaction's read timestamp.
  StatusOr<std::string> Read(TxnId txn, int64_t record_id);

  /// Logs old/new values and applies the update in memory. 2PL X-locks
  /// first; snapshot transactions claim per-record MVCC ownership first
  /// (kConflict if another writer owns the record or a newer version was
  /// committed after the snapshot began — the caller must then Abort).
  /// Any failure here leaves the transaction abort-required.
  Status Update(TxnId txn, int64_t record_id, std::string_view new_value);

  /// Pre-commit + group-commit wait, per the class comment.
  Status Commit(TxnId txn);

  /// Undoes in memory (logging compensations), releases locks and MVCC
  /// claims.
  Status Abort(TxnId txn);

  /// Begin-record LSN of the oldest still-active transaction, or
  /// kInvalidLsn when none is in flight. A hot backup starts its log
  /// capture window here: every update a transaction active during the
  /// page copy could have made carries an LSN at or after its begin
  /// record. A transaction inside Commit or Abort still counts until it
  /// returns, so one whose commit or abort record lands after a backup's
  /// end fence has all its updates in that backup's window.
  Lsn OldestActiveBeginLsn() const;

  RecoverableStore* store() const { return store_; }
  Wal* wal() const { return wal_; }
  MvccManager* versions() const { return versions_; }
  MetricsRegistry* metrics() const { return counters_.registry(); }

  /// Invoked with the transaction id after every successful Commit, once
  /// the commit is durable and its locks are finalized. The Database wires
  /// this to reuse-cache invalidation for the record-plane namespace. Set
  /// at most once, before traffic starts; not called on Abort.
  void set_commit_hook(std::function<void(TxnId)> hook) {
    commit_hook_ = std::move(hook);
  }

 private:
  struct UndoEntry {
    int64_t record_id;
    std::string old_value;
    std::string new_value;
  };
  struct TxnState {
    TxnMode mode = TxnMode::kTwoPhaseLocking;
    Lsn begin_lsn = kInvalidLsn;  ///< LSN of the kBegin record
    uint64_t read_ts = 0;  ///< pinned snapshot (kSnapshot mode only)
    std::vector<TxnId> deps;
    std::vector<UndoEntry> undo;
    /// Records whose MVCC write ownership this txn claimed (superset of
    /// `undo`'s record ids: a claim that failed its subsequent lock or
    /// store write has no undo entry but must still be released on abort).
    std::vector<int64_t> claimed;
  };

  /// Looks up `txn`'s mode and read timestamp. Returns false if inactive.
  bool LookupMode(TxnId txn, TxnMode* mode, uint64_t* read_ts) const;
  /// Appends `record_id` to `txn`'s claimed list (deduplicated).
  Status TrackClaim(TxnId txn, int64_t record_id);
  /// Drops one `begin_lsn` entry from finishing_; caller holds mu_.
  void EraseFinishingLocked(Lsn begin_lsn);

  RecoverableStore* store_;
  LockManager* locks_;
  Wal* wal_;
  FirstUpdateTable* fut_;
  MvccManager* versions_;

  std::function<void(TxnId)> commit_hook_;

  std::atomic<TxnId> next_txn_{1};
  mutable std::mutex mu_;
  std::map<TxnId, TxnState> active_;
  /// Begin LSNs of transactions that have left active_ in Commit or Abort
  /// and not yet returned (see OldestActiveBeginLsn).
  std::multiset<Lsn> finishing_;

  enum Counter { kBegun, kCommitted, kAborted, kSnapshotBegun, kConflicts,
                 kNumCounters };
  MetricCounters<kNumCounters> counters_;
};

}  // namespace mmdb

#endif  // MMDB_TXN_TRANSACTION_MANAGER_H_
