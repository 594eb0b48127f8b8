#ifndef MMDB_TXN_MVCC_H_
#define MMDB_TXN_MVCC_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/version_chain.h"
#include "txn/recoverable_store.h"

namespace mmdb {

/// §6's versioning mechanism, timestamp-ordered in the style of Larson et
/// al. (PAPERS.md): version chains hung off each tuple with begin/end
/// commit timestamps, per-record write ownership instead of table X-locks,
/// and first-writer-wins conflict detection (DESIGN.md §11).
///
/// Division of labour with the RecoverableStore: the record's CURRENT
/// value stays in-place in the store (writers still update in place, so
/// checkpointing and recovery are untouched); the chain holds superseded
/// committed values plus, while a writer is in flight, the pre-image it
/// displaced. Protocol:
///
///   * ClaimWrite: a writer claims exclusive ownership of the record and
///     atomically captures the store's committed value as a pending chain
///     node {begin = newest_begin, end = kPendingTs}. Claims NEVER block —
///     a record owned by another transaction is an immediate kConflict
///     (first writer wins), as is, for snapshot transactions, a record
///     whose newest version postdates the snapshot's read timestamp.
///   * CommitTxn: assigns the next commit timestamp — under the same mutex
///     that orders BeginSnapshot, so a snapshot either sees all of a
///     transaction's stamps or none — then seals each claimed record's
///     pending node (end = ts), advances newest_begin and drops ownership.
///   * AbortTxn: unlinks the pending node (the caller restored the store's
///     in-place value first) and drops ownership.
///   * Read: lock-free in the latching sense — takes only the record's
///     chain stripe, never a lock-manager lock and never the catalog
///     latch. An unowned record whose newest_begin <= read_ts is served
///     straight from the store; otherwise the newest history node with
///     begin <= read_ts serves the read.
///
/// Chains are volatile: after a crash recovery rebuilds the store and a
/// fresh manager starts empty (open snapshots do not survive restarts).
///
/// Counts "mvcc.*" into the registry passed at construction (a private one
/// when null).
class MvccManager {
 public:
  /// `store` must outlive the manager; chain heads are sized to its record
  /// count.
  explicit MvccManager(RecoverableStore* store,
                       MetricsRegistry* metrics = nullptr);

  MvccManager(const MvccManager&) = delete;
  MvccManager& operator=(const MvccManager&) = delete;

  /// Passed to ClaimWrite by 2PL writers: the claim checks ownership only,
  /// not snapshot freshness (the X lock already serialized them).
  static constexpr uint64_t kNoSnapshotCheck = kPendingTs;

  // ---- Reader side ------------------------------------------------------

  /// Opens a snapshot: registers and returns the current commit timestamp
  /// as the read timestamp (pins GC at/after it).
  uint64_t BeginSnapshot();

  /// Closes a snapshot (enables GC past it). Unknown handles are ignored.
  void EndSnapshot(uint64_t read_ts);

  /// Reads `record_id` as of `read_ts` — no lock-manager locks, no catalog
  /// latch; only the record's chain stripe.
  StatusOr<std::string> Read(uint64_t read_ts, int64_t record_id);

  // ---- Writer side (called by TransactionManager) ------------------------

  /// Claims write ownership of `record_id` for `txn` and captures the
  /// store's committed value as the pending pre-image node. Non-blocking:
  /// returns kConflict if another transaction owns the record, or — unless
  /// `snapshot_read_ts` is kNoSnapshotCheck — if a version newer than
  /// `snapshot_read_ts` was committed (first writer wins). Idempotent for
  /// the owning transaction. The caller must not modify the store's record
  /// before a successful claim.
  Status ClaimWrite(TxnId txn, int64_t record_id, uint64_t snapshot_read_ts);

  /// Assigns and returns `txn`'s commit timestamp and seals its claimed
  /// records' pending nodes. Must be called after the store holds the
  /// transaction's final values and before its locks pre-commit-release.
  uint64_t CommitTxn(TxnId txn, const std::vector<int64_t>& record_ids);

  /// Rolls back `txn`'s claims: unlinks each pending pre-image node and
  /// clears ownership. The caller must restore the store's in-place values
  /// (compensation updates) BEFORE calling this, so readers that saw the
  /// chain node and readers that see the store agree.
  void AbortTxn(TxnId txn, const std::vector<int64_t>& record_ids);

  // ---- Maintenance -------------------------------------------------------

  /// Drops history nodes invisible to every open snapshot (end timestamp
  /// at/below the oldest active read timestamp). Returns how many versions
  /// were discarded.
  int64_t Gc();

  /// The GC horizon: oldest active read timestamp, or the current commit
  /// timestamp when no snapshot is open.
  uint64_t GcHorizon() const;

  uint64_t current_ts() const;
  int64_t num_versions() const { return chains_.CountNodes(); }
  MetricsRegistry* metrics() const { return counters_.registry(); }

 private:
  RecoverableStore* store_;
  VersionChainTable chains_;

  /// Orders commit-timestamp assignment with BeginSnapshot and guards the
  /// active-snapshot set. Never taken while holding a chain stripe.
  mutable std::mutex ts_mu_;
  uint64_t commit_ts_ = 0;
  std::multiset<uint64_t> active_snapshots_;

  enum Counter { kVersionsStored, kVersionsGced, kChainReads, kDirectReads,
                 kConflicts, kCommits, kAborts, kNumCounters };
  MetricCounters<kNumCounters> counters_;
};

}  // namespace mmdb

#endif  // MMDB_TXN_MVCC_H_
