#ifndef MMDB_TXN_LOCK_MANAGER_H_
#define MMDB_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/log_record.h"

namespace mmdb {

/// Lockable object id (a record id in the RecoverableStore).
using LockId = int64_t;

/// kIntentionExclusive declares finer-granularity exclusive intent under a
/// coarse lock (a table lock covering per-row locks): IX is compatible
/// with IX — two point-writers on the same table proceed concurrently,
/// serializing on their row locks — but conflicts with S and X, so whole-
/// table readers and writers still exclude them. An S + IX combination
/// held by one transaction escalates to X (SIX is approximated by X).
enum class LockMode { kShared, kIntentionExclusive, kExclusive };

/// Lock-mode compatibility matrix: S~S, IX~IX; everything else conflicts.
inline bool LockModesCompatible(LockMode a, LockMode b) {
  return a == b && a != LockMode::kExclusive;
}

/// The weakest mode subsuming both (S+IX and anything+X give X).
inline LockMode CombineLockModes(LockMode a, LockMode b) {
  return a == b ? a : LockMode::kExclusive;
}

/// §5.2's extended lock table: "Associated with each lock are three sets of
/// transactions: active transactions that currently hold the lock,
/// transactions that are waiting to be granted the lock, and pre-committed
/// transactions that have released the lock but have not yet committed."
///
/// Pre-committed holders do NOT block new requests — that is the whole
/// point of pre-commit — but every grant records them in the grantee's
/// dependency list, which the caller passes to Wal::AppendCommit so the
/// dependent's commit record cannot reach disk first.
///
/// Deadlocks among *active* holders are detected with a waits-for-graph
/// cycle check at block time; the requester is the victim (kDeadlock).
///
/// Counts "<prefix>.*" into `metrics` (a private registry when null): the
/// Database's manager as "locks", the Server's table locks "server.locks".
class LockManager {
 public:
  static constexpr std::chrono::milliseconds kDefaultWaitTimeout{10'000};

  explicit LockManager(std::chrono::milliseconds wait_timeout =
                           kDefaultWaitTimeout,
                       MetricsRegistry* metrics = nullptr,
                       std::string_view prefix = "locks");

  /// Acquires (or upgrades to) `mode` on `lock` for `txn`, blocking while
  /// incompatible active holders exist. On success appends the lock's
  /// current pre-committed holders to `*deps`.
  Status Acquire(TxnId txn, LockId lock, LockMode mode,
                 std::vector<TxnId>* deps);

  /// Moves every lock held by `txn` from the holders set to the
  /// pre-committed set and wakes waiters ("releases all locks without
  /// waiting for the commit record to be written").
  void PreCommit(TxnId txn);

  /// Removes `txn` from all pre-committed sets once its commit record is
  /// durable (dependents stop recording it).
  void FinalizeCommit(TxnId txn);

  /// Abort path: releases all of `txn`'s locks immediately (it was never
  /// pre-committed, so no one depends on it).
  void ReleaseAll(TxnId txn);

  /// Number of lock table entries (tests).
  int64_t NumLocks() const;

  /// View over the "<prefix>.*" counters.
  struct Stats {
    int64_t acquisitions = 0;
    int64_t waits = 0;
    int64_t deadlocks = 0;
    int64_t dependencies_recorded = 0;
  };
  Stats stats() const;
  MetricsRegistry* metrics() const { return counters_.registry(); }

 private:
  struct Lock {
    std::map<TxnId, LockMode> holders;
    std::set<TxnId> pre_committed;
    int64_t waiting = 0;
  };

  bool Compatible(const Lock& lock, TxnId txn, LockMode mode) const;
  /// True if `from` can reach `to` in the waits-for graph.
  bool PathExists(TxnId from, TxnId to) const;

  std::chrono::milliseconds wait_timeout_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<LockId, Lock> locks_;
  std::map<TxnId, std::set<LockId>> held_;           // txn -> locks held
  std::map<TxnId, std::set<LockId>> pre_committed_;  // txn -> locks pre-rel.
  std::map<TxnId, std::set<TxnId>> waits_for_;       // blocked -> blockers

  enum Counter { kAcquisitions, kWaits, kDeadlocks, kDependenciesRecorded,
                 kNumCounters };
  MetricCounters<kNumCounters> counters_;
};

}  // namespace mmdb

#endif  // MMDB_TXN_LOCK_MANAGER_H_
