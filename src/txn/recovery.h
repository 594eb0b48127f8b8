#ifndef MMDB_TXN_RECOVERY_H_
#define MMDB_TXN_RECOVERY_H_

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "txn/log_manager.h"
#include "txn/recoverable_store.h"

namespace mmdb {

/// How much of recovery must complete before the store serves traffic
/// (DESIGN.md §12).
enum class RecoveryMode {
  /// §5 / RecoverStore: snapshot load + full redo/undo before anything is
  /// readable. Minutes of downtime at scale, but dead simple.
  kBlocking,
  /// MM-DIRECT-style instant recovery: only the analysis phase (one log
  /// scan building a per-record redo index) blocks. The store then serves
  /// traffic immediately; a not-yet-restored record is replayed on demand
  /// at first access while a background sweep restores the rest.
  kInstant,
};

struct RecoveryOptions {
  /// Use the stable first-update table to skip the log prefix whose
  /// effects are guaranteed to be in the snapshot (§5.5). When false, the
  /// entire log is replayed ("recovery times would become intolerably
  /// long" — measured by bench_checkpoint_recovery).
  bool use_first_update_table = true;

  /// Blocking (§5) vs instant (§12) restart. Defaults to blocking so every
  /// pre-existing test and bench keeps its semantics without edits.
  RecoveryMode mode = RecoveryMode::kBlocking;

  // ---- kInstant knobs (ignored in kBlocking mode) -----------------------
  /// Max log records an on-demand replay may apply synchronously on behalf
  /// of one access. An access to a record whose chain is longer is refused
  /// with kRecovering (no side effects) and must wait for the sweep.
  int64_t ondemand_replay_budget = std::numeric_limits<int64_t>::max();
  /// Records the background sweep restores per slice (throttle so the
  /// sweep does not starve foreground on-demand traffic).
  int64_t sweep_batch_size = 256;
  /// Pause between sweep slices (0 = sweep flat out).
  std::chrono::microseconds sweep_pause{0};
  /// Realized cost of restoring one record from the log, slept in REAL
  /// time wherever a record is replayed — the blocking apply loop, an
  /// on-demand replay, and the background sweep alike. The in-memory log
  /// makes replay unrealistically free; this models the per-record log
  /// segment read the same way bench_recovery_throughput realizes log
  /// WRITE latency (§5.2's 10 ms page). 0 (the default) sleeps nowhere.
  /// Honoured by both modes, so blocking vs instant comparisons stay fair.
  std::chrono::microseconds replay_latency{0};
};

struct RecoveryStats {
  int64_t log_records_total = 0;
  int64_t log_records_scanned = 0;  ///< records at/after the start point
  int64_t redo_applied = 0;
  int64_t undo_applied = 0;
  int64_t winners = 0;  ///< committed or cleanly aborted transactions
  int64_t losers = 0;   ///< in-flight at crash
  Lsn start_lsn = 0;
  /// Largest record-plane txn id in the log (ids below kSqlStmtTxnBase);
  /// the restarted TransactionManager starts above this.
  TxnId max_txn_id = 0;
  /// Largest SQL-statement commit id in the log (ids at/above
  /// kSqlStmtTxnBase, 0 if none); next_sql_stmt_txn_ restarts above this.
  TxnId max_sql_stmt_txn_id = 0;
  int64_t snapshot_pages_read = 0;
  double wall_seconds = 0;
  /// Simulated log-read time: scanned bytes / page size * page read time.
  double simulated_log_read_seconds = 0;

  // Damage tolerated during restart (all zero on a clean recovery).
  int64_t corrupt_records_skipped = 0;  ///< checksum-failed log records
  int64_t torn_tail_bytes = 0;          ///< partial tail after the crash
  int64_t unreadable_log_pages = 0;     ///< log pages zero-substituted
  int64_t snapshot_pages_quarantined = 0;  ///< rebuilt from the log
  int64_t retries = 0;  ///< transient I/O errors retried during restart
  /// True when the first-update fast path could not be (fully) trusted:
  /// the table failed its checksum, or quarantined snapshot pages forced
  /// full-history replay for their records.
  bool degraded_mode = false;

  // ---- Instant recovery (RecoveryMode::kInstant, DESIGN.md §12) ---------
  // Phase timings. Blocking recovery reports everything under
  // wall_seconds; instant recovery splits it: analysis blocks startup,
  // on-demand time is paid inside foreground accesses, sweep time runs in
  // the background. For kInstant, wall_seconds == analysis_seconds (the
  // only part the restart waits for).
  double analysis_seconds = 0;
  double ondemand_seconds = 0;  ///< cumulative, across all accesses
  double sweep_seconds = 0;     ///< sweep start -> index fully retired
  /// Records whose log chains still had to be replayed when analysis
  /// finished (the size of the log index handed to the controller).
  int64_t pending_records = 0;
  int64_t ondemand_records = 0;   ///< records restored by foreground accesses
  int64_t ondemand_replayed = 0;  ///< log records applied on demand
  int64_t ondemand_budget_exceeded = 0;  ///< accesses refused (kRecovering)
  int64_t sweep_records = 0;      ///< records restored by the sweep
  int64_t sweep_replayed = 0;     ///< log records applied by the sweep
};

/// One record's endpoint under §5's rule (ResolveLog). With value
/// (physical) logging a record's final image is fixed by one update:
///   * the NEW value of its latest winner update, unless
///   * a loser updated it after that winner — then the OLD value of the
///     EARLIEST such loser update (the committed image the loser
///     overwrote; locks guarantee no winner interleaved).
/// The rule is idempotent across crash epochs: a loser from an earlier
/// epoch (which the log never seals) is superseded by any later winner on
/// the same record instead of being re-undone over it.
struct ResolvedRecord {
  std::string image;      ///< the bytes the record must hold
  Lsn lsn = kInvalidLsn;  ///< the endpoint update's LSN
  bool undo = false;      ///< the endpoint is a loser's update
  /// Log records a replay of the record's history would apply: each of its
  /// winner updates, or 1 for an undo (the loser's old value already holds
  /// every earlier winner). Instant recovery charges it against the
  /// on-demand budget and counts it as replayed.
  int64_t chain_length = 0;
};

struct LogResolution {
  std::unordered_map<int64_t, ResolvedRecord> records;  ///< updated records
  /// Transactions with a COMMIT or ABORT record. An abort logged its
  /// compensation updates first, so replaying it is correct.
  int64_t winners = 0;
  int64_t losers = 0;  ///< every other transaction: in flight at the cut
};

/// §5's winner/loser classification and per-record resolution over an
/// LSN-sorted log, truncated at `cut_lsn` (exclusive): a transaction whose
/// commit/abort record lies at or past the cut is a loser. Restart analysis
/// resolves the whole log; backup restore cuts at its chain's end fence, or
/// just past a point-in-time target's commit record.
StatusOr<LogResolution> ResolveLog(
    const std::vector<LogRecord>& log,
    Lsn cut_lsn = std::numeric_limits<Lsn>::max());

/// Restart analysis's output (DESIGN.md §12), restored on one of two
/// schedules: inline before the store opens (RestoreInline, kBlocking) or
/// behind the store's access guard while it serves (RecoveryController,
/// kInstant). Restoring a record is one write of its resolved endpoint,
/// which leaves the same image and page LSN as replaying its whole chain.
struct InstantRecoveryPlan {
  /// record id -> endpoint still to restore. Records absent from this map
  /// were fully restored by the snapshot load.
  std::unordered_map<int64_t, ResolvedRecord> pending;
  /// Records of `pending` in endpoint-LSN order: the restore order of both
  /// schedules ("restore in log order").
  std::vector<int64_t> sweep_order;
  /// Snapshot pages that were zero-filled at load; the end-of-recovery
  /// step rewrites them even when untouched, healing the bad sectors.
  std::vector<int64_t> quarantined_pages;
  /// LSN of the merged log's last record (kInvalidLsn for an empty log).
  Lsn end_lsn = kInvalidLsn;
  /// The first-update table failed its checksum at analysis; the
  /// end-of-recovery step rebuilds it.
  bool fut_corrupt = false;
  /// Analysis-phase stats (wall_seconds == analysis_seconds). winners,
  /// losers, id maxima and damage counters are final; redo/undo/ondemand/
  /// sweep counters accumulate while the plan is restored.
  RecoveryStats stats;
};

/// Restart ANALYSIS, shared by both schedules:
///   1. reload the disk snapshot ("first reloading the snapshot on disk");
///   2. merge the log fragments and resolve every record (ResolveLog);
///   3. start the scan at the first-update table's oldest entry and drop
///      each record whose endpoint predates its page's entry (page-precise:
///      the snapshot already holds it).
/// Applies no redo. A quarantined snapshot page or an untrusted
/// first-update table drops the fast path (degraded_mode): every record is
/// then planned from the full log, which rebuilds quarantined pages.
StatusOr<InstantRecoveryPlan> AnalyzeInstantRecovery(RecoverableStore* store,
                                                     Wal* wal,
                                                     FirstUpdateTable* fut,
                                                     RecoveryOptions options);

/// Restores one record of a plan: sleeps options.replay_latency (the
/// modelled log-segment read), then writes the endpoint's image with
/// ApplyRecovery.
Status RestoreRecord(RecoverableStore* store, int64_t record_id,
                     const ResolvedRecord& endpoint,
                     const RecoveryOptions& options);

/// The end-of-recovery step, once every record of `plan` is restored.
/// Stamps healed quarantined pages with the log's end LSN, checkpoints
/// every page that is dirty, quarantined or holds a first-update entry,
/// and rebuilds the table's checksum when analysis found it corrupt. Both
/// schedules leave the same snapshot and a verified table, empty when no
/// traffic ran. `wal` (null when no traffic ran yet) enforces the WAL rule;
/// a set `*stop` abandons the step with FailedPrecondition.
Status FinishRecovery(RecoverableStore* store, FirstUpdateTable* fut,
                      Wal* wal, const InstantRecoveryPlan& plan,
                      const std::atomic<bool>* stop = nullptr);

/// The blocking schedule (§5): restores every record of `plan` in
/// sweep order, then runs FinishRecovery. Reports redo_applied and
/// undo_applied per record, and analysis plus restore under wall_seconds.
StatusOr<RecoveryStats> RestoreInline(RecoverableStore* store,
                                      FirstUpdateTable* fut,
                                      const InstantRecoveryPlan& plan,
                                      const RecoveryOptions& options);

/// Blocking restart recovery for the §5 store: AnalyzeInstantRecovery,
/// then RestoreInline.
StatusOr<RecoveryStats> RecoverStore(RecoverableStore* store, Wal* wal,
                                     FirstUpdateTable* fut,
                                     RecoveryOptions options = {});

}  // namespace mmdb

#endif  // MMDB_TXN_RECOVERY_H_
