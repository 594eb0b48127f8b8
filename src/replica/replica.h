#ifndef MMDB_REPLICA_REPLICA_H_
#define MMDB_REPLICA_REPLICA_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "db/database.h"
#include "txn/log_record.h"

namespace mmdb {

/// A read replica in continuous-redo mode (DESIGN.md §13): wraps a second
/// `Database` (same record-plane geometry as the primary, transactions
/// enabled) whose store advances ONLY by applying log records shipped from
/// the primary. Apply is transaction-atomic — a transaction's updates are
/// buffered until its commit (or abort, whose logged compensations then
/// roll it back) arrives, and installed under one mutex hold — so every
/// read the replica serves sees a committed-prefix snapshot of the
/// primary, at the published horizon.
///
/// Counts "replica.*" into the wrapped database's registry as it applies.
///
/// Reads: SnapshotRead() serves record reads at the applied horizon;
/// a read-only Server (Server::Options::read_only) can front the wrapped
/// database for session traffic. Writes through the wrapped database are
/// the caller's responsibility to avoid until Promote().
class Replica {
 public:
  /// `db` is borrowed, must outlive the replica, and must not serve
  /// writes while the replica is attached.
  explicit Replica(Database* db);

  /// Applies one shipped batch (LSN order; gaps from never-durable
  /// records are fine). `shipped_horizon` is the primary's durable
  /// horizon the batch was read against; the replica's applied horizon
  /// advances to min(shipped_horizon, .. everything applied ..) — i.e. to
  /// `upto` of the shipper's read — and lag is measured against the
  /// latest shipped horizon.
  Status ApplyRecords(const std::vector<LogRecord>& batch, Lsn read_upto,
                      Lsn shipped_horizon);

  /// Reads `record_ids` atomically against the applied committed-prefix
  /// state; `horizon` (optional) receives the LSN the snapshot is
  /// consistent at.
  StatusOr<std::vector<std::string>> SnapshotRead(
      const std::vector<int64_t>& record_ids, Lsn* horizon = nullptr);

  /// LSN distance between the primary's last shipped durable horizon and
  /// what this replica has applied.
  Lsn LagLsn() const;
  Lsn AppliedHorizon() const;

  /// Detaches from the shipping stream and turns the wrapped database
  /// into a writable primary: drops in-flight transaction buffers (their
  /// commits never arrived — the committed prefix stands), clears page-LSN
  /// stamps (they belong to the primary's WAL epoch) and checkpoints the
  /// applied image so the new primary restarts from it.
  Status Promote();

  Database* database() { return db_; }

 private:
  struct PendingUpdate {
    int64_t record_id;
    std::string value;
    Lsn lsn;
  };

  /// Sets the horizon, lag and in-flight gauges.
  void SetGaugesLocked();

  Database* db_;
  enum Counter { kAppliedRecords, kAppliedTxns, kHorizonLsn, kLagLsn,
                 kInflightTxns, kNumCounters };
  MetricCounters<kNumCounters> counters_;

  mutable std::mutex mu_;
  /// txn id -> updates seen but not yet sealed by a commit/abort record.
  std::map<TxnId, std::vector<PendingUpdate>> inflight_;
  Lsn applied_horizon_ = 0;
  Lsn shipped_horizon_ = 0;
  bool promoted_ = false;
};

}  // namespace mmdb

#endif  // MMDB_REPLICA_REPLICA_H_
