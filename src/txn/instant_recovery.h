#ifndef MMDB_TXN_INSTANT_RECOVERY_H_
#define MMDB_TXN_INSTANT_RECOVERY_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "txn/recovery.h"

namespace mmdb {

/// Drives instant recovery's serving-while-sweeping window (DESIGN.md §12):
/// the instant schedule of a restart plan that blocking recovery restores
/// inline (RestoreInline). Constructed with the analysis phase's plan, it
/// installs itself as the store's RecordAccessGuard so any access to a
/// not-yet-restored record restores it on demand (bounded by the replay
/// budget, charged the record's chain length — over budget the access is
/// refused with kRecovering and no side effects), while a background sweep
/// thread restores the remaining records in log order. When the plan drains
/// the controller runs the shared end-of-recovery step (FinishRecovery),
/// detaches the guard, and fires `on_complete` — at which point the store
/// image and first-update table are those blocking recovery produces.
///
/// Crash safety: restores never enter the first-update table and never
/// reach the disk before the end step, whose checkpoints reset an entry
/// only for a page they then write. A crash anywhere inside the window
/// leaves snapshot + log + table as the first analysis found them, or with
/// some pages already written out — the next restart re-enters analysis and
/// rebuilds a plan (new traffic adds ordinary logged updates on top, which
/// analysis handles like any other committed work).
///
/// Counts recovery.ondemand.*, recovery.sweep.* and recovery.instant.* into
/// the registry passed at construction (a private one when null).
class RecoveryController : public RecordAccessGuard {
 public:
  /// `on_complete` runs on the sweep thread after the final checkpoint —
  /// the Database uses it to start the (deliberately deferred) background
  /// checkpointer. May be empty.
  RecoveryController(RecoverableStore* store, FirstUpdateTable* fut, Wal* wal,
                     InstantRecoveryPlan plan, RecoveryOptions options,
                     std::function<void()> on_complete = {},
                     MetricsRegistry* metrics = nullptr);
  ~RecoveryController() override;

  RecoveryController(const RecoveryController&) = delete;
  RecoveryController& operator=(const RecoveryController&) = delete;

  /// Installs the access guard and launches the background sweep. Call
  /// once, after the owning Database has its WAL running (foreground
  /// traffic may arrive the moment this returns).
  void Start();

  /// Detaches the guard and joins the sweep without finishing it (used by
  /// Crash()). Safe to call repeatedly; a completed sweep is a no-op.
  void Stop();

  /// Blocks until the sweep has drained the index and the final checkpoint
  /// is durable (or the controller was stopped). OK when recovery
  /// completed; FailedPrecondition when it was stopped early.
  Status WaitComplete();

  /// True once every record is restored and the final checkpoint is done.
  bool complete() const { return complete_.load(std::memory_order_acquire); }

  /// Records still awaiting replay.
  int64_t remaining() const {
    return remaining_.load(std::memory_order_acquire);
  }

  /// Analysis stats plus live on-demand/sweep counters and phase timings.
  RecoveryStats stats() const;
  MetricsRegistry* metrics() const { return counters_.registry(); }

  /// RecordAccessGuard: restore `record_id` before the access proceeds.
  Status OnAccess(int64_t record_id) override;

 private:
  static constexpr int kShards = 64;

  /// Restores `record_id` if it is still pending. Foreground
  /// (`from_sweep` false) enforces the replay budget; the sweep never
  /// gives up.
  Status EnsureRecovered(int64_t record_id, bool from_sweep);
  void SweepLoop();
  /// FinishRecovery + guard detach once the plan is drained.
  Status FinishSweep();

  RecoverableStore* store_;
  FirstUpdateTable* fut_;
  Wal* wal_;
  InstantRecoveryPlan plan_;
  RecoveryOptions options_;
  std::function<void()> on_complete_;

  /// restored_[id]: true once the record needs no replay. Records absent
  /// from the index start true (the snapshot already held their state).
  std::unique_ptr<std::atomic<bool>[]> restored_;
  /// Serialises restores per record (hashed); plan_.pending itself is
  /// structurally immutable after analysis, so concurrent find() + mutation
  /// of DISTINCT endpoints is safe.
  std::mutex shards_[kShards];

  std::atomic<int64_t> remaining_{0};
  std::atomic<bool> complete_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> sweep_done_{false};

  std::atomic<int64_t> ondemand_records_{0};
  std::atomic<int64_t> ondemand_replayed_{0};
  std::atomic<int64_t> ondemand_budget_exceeded_{0};
  std::atomic<int64_t> ondemand_micros_{0};
  std::atomic<int64_t> sweep_records_{0};
  std::atomic<int64_t> sweep_replayed_{0};
  std::atomic<int64_t> sweep_micros_{0};

  enum Counter { kOndemandRecords, kOndemandReplayed, kOndemandBudgetExceeded,
                 kSweepRecords, kSweepReplayed, kSweepMs, kOndemandMs,
                 kPending, kComplete, kIndexRecords, kAnalysisMs,
                 kNumCounters };
  MetricCounters<kNumCounters> counters_;

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  Status sweep_status_;  ///< guarded by wait_mu_

  /// One worker, started last so every member it touches is initialised.
  std::unique_ptr<ThreadPool> pool_;
  std::future<void> sweep_future_;
};

}  // namespace mmdb

#endif  // MMDB_TXN_INSTANT_RECOVERY_H_
