#include "txn/recovery.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace mmdb {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

StatusOr<LogResolution> ResolveLog(const std::vector<LogRecord>& log,
                                   Lsn cut_lsn) {
  LogResolution out;
  std::unordered_set<TxnId> winners;
  std::unordered_set<TxnId> seen;
  for (const LogRecord& rec : log) {
    if (rec.lsn >= cut_lsn) break;  // the log is LSN-sorted
    seen.insert(rec.txn_id);
    if (rec.type == LogRecordType::kCommit ||
        rec.type == LogRecordType::kAbort) {
      winners.insert(rec.txn_id);
    }
  }
  out.winners = static_cast<int64_t>(winners.size());
  out.losers = static_cast<int64_t>(seen.size()) - out.winners;

  struct Timeline {
    const LogRecord* winner = nullptr;       // latest winner update
    const LogRecord* loser_after = nullptr;  // earliest loser after it
    int64_t winner_updates = 0;
  };
  std::unordered_map<int64_t, Timeline> timelines;
  for (const LogRecord& rec : log) {
    if (rec.lsn >= cut_lsn) break;
    if (rec.type != LogRecordType::kUpdate) continue;
    Timeline& t = timelines[rec.record_id];
    if (winners.count(rec.txn_id)) {
      t.winner = &rec;  // later winner supersedes
      t.loser_after = nullptr;
      ++t.winner_updates;
    } else if (t.loser_after == nullptr) {
      if (rec.old_value.empty() && !rec.new_value.empty()) {
        // A compressed record can only belong to a committed txn;
        // in-flight stable areas always retain their undo images.
        return Status::Internal("loser update lacks undo image");
      }
      t.loser_after = &rec;  // first in-flight overwrite after winner
    }
  }
  out.records.reserve(timelines.size());
  for (const auto& [record_id, t] : timelines) {
    ResolvedRecord r;
    if (t.loser_after != nullptr) {
      r.image = t.loser_after->old_value;
      r.lsn = t.loser_after->lsn;
      r.undo = true;
      r.chain_length = 1;
    } else {
      r.image = t.winner->new_value;
      r.lsn = t.winner->lsn;
      r.chain_length = t.winner_updates;
    }
    out.records.emplace(record_id, std::move(r));
  }
  return out;
}

StatusOr<InstantRecoveryPlan> AnalyzeInstantRecovery(RecoverableStore* store,
                                                     Wal* wal,
                                                     FirstUpdateTable* fut,
                                                     RecoveryOptions options) {
  const auto t0 = std::chrono::steady_clock::now();
  InstantRecoveryPlan plan;
  RecoveryStats& stats = plan.stats;

  // 1. Snapshot reload. Pages that stay unreadable or fail their CRC are
  // quarantined (zero-filled); their contents are rebuilt from the log
  // below, so they must not take the first-update fast path.
  const RecoverableStore::Stats store_before = store->stats();
  MMDB_RETURN_IF_ERROR(store->LoadSnapshot(&plan.quarantined_pages));
  stats.snapshot_pages_read =
      store->stats().snapshot_pages_read - store_before.snapshot_pages_read;
  stats.snapshot_pages_quarantined =
      static_cast<int64_t>(plan.quarantined_pages.size());
  const std::unordered_set<int64_t> quarantined(
      plan.quarantined_pages.begin(), plan.quarantined_pages.end());

  // 2. Merge fragments and resolve every record. Checksum-failed records
  // are dropped by the parser (counted, never applied); a torn tail past
  // the last valid record is expected after a crash mid-flush.
  Wal::LogReadStats log_read;
  const std::vector<LogRecord> log = wal->ReadAllForRecovery(&log_read);
  stats.log_records_total = static_cast<int64_t>(log.size());
  stats.corrupt_records_skipped = log_read.corrupt_records_skipped;
  stats.torn_tail_bytes = log_read.torn_tail_bytes;
  stats.unreadable_log_pages = log_read.unreadable_pages;
  MMDB_ASSIGN_OR_RETURN(LogResolution resolution, ResolveLog(log));
  stats.winners = resolution.winners;
  stats.losers = resolution.losers;

  // 3. Start from the first-update boundary — but only if the table
  // survives its checksum check. A bit-flipped first-update LSN could
  // silently skip redo, so on mismatch the table is abandoned and the
  // whole log replayed (degraded mode: slow but safe).
  plan.fut_corrupt = fut != nullptr && !fut->Verify();
  const bool fut_trusted =
      options.use_first_update_table && fut != nullptr && !plan.fut_corrupt;
  if (options.use_first_update_table && plan.fut_corrupt) {
    stats.degraded_mode = true;
  }
  if (!quarantined.empty()) stats.degraded_mode = true;
  Lsn start = 0;
  if (fut_trusted) {
    const Lsn min_lsn = fut->MinLsn();
    start = min_lsn == kInvalidLsn
                ? std::numeric_limits<Lsn>::max()  // everything checkpointed
                : min_lsn;
    // Quarantined pages lost their snapshot image: every surviving update
    // to them must replay, so the scan cannot start past the log head.
    if (!quarantined.empty()) start = 0;
  }
  stats.start_lsn = start;

  int64_t scanned_bytes = 0;
  for (const LogRecord& rec : log) {
    if (rec.txn_id >= kSqlStmtTxnBase) {
      stats.max_sql_stmt_txn_id =
          std::max(stats.max_sql_stmt_txn_id, rec.txn_id);
    } else {
      stats.max_txn_id = std::max(stats.max_txn_id, rec.txn_id);
    }
    if (rec.lsn >= start) {
      ++stats.log_records_scanned;
      scanned_bytes += rec.SerializedSize();
    }
  }
  // Price the log scan as sequential 4K-page reads at the paper's 10 ms.
  stats.simulated_log_read_seconds =
      double((scanned_bytes + 4095) / 4096) * 0.010;
  // Transient I/O retried so far (snapshot load + log read); the restore
  // adds retries from its own apply/checkpoint phase.
  stats.retries = log_read.retries +
                  (store->stats().io_retries - store_before.io_retries);

  // The plan: every resolved record except a redo the first-update table
  // proves is already in the snapshot (its endpoint predates its page's
  // first un-checkpointed update). A quarantined page was zero-filled, so
  // nothing is "already there" for it; an undo always restores.
  std::vector<std::pair<Lsn, int64_t>> order;
  for (auto& [record_id, endpoint] : resolution.records) {
    const int64_t page = store->PageOf(record_id);
    if (!endpoint.undo && fut_trusted && !quarantined.count(page)) {
      const Lsn page_first = fut->Get(page);
      if (page_first == kInvalidLsn || endpoint.lsn < page_first) continue;
    }
    order.emplace_back(endpoint.lsn, record_id);
    plan.pending.emplace(record_id, std::move(endpoint));
  }
  std::sort(order.begin(), order.end());
  plan.sweep_order.reserve(order.size());
  for (const auto& [lsn, record_id] : order) {
    plan.sweep_order.push_back(record_id);
  }
  if (!log.empty()) plan.end_lsn = log.back().lsn;
  stats.pending_records = static_cast<int64_t>(plan.pending.size());
  stats.analysis_seconds = SecondsSince(t0);
  stats.wall_seconds = stats.analysis_seconds;
  return plan;
}

Status RestoreRecord(RecoverableStore* store, int64_t record_id,
                     const ResolvedRecord& endpoint,
                     const RecoveryOptions& options) {
  if (options.replay_latency.count() > 0) {
    std::this_thread::sleep_for(options.replay_latency);
  }
  return store->ApplyRecovery(record_id, endpoint.image, endpoint.lsn);
}

Status FinishRecovery(RecoverableStore* store, FirstUpdateTable* fut,
                      Wal* wal, const InstantRecoveryPlan& plan,
                      const std::atomic<bool>* stop) {
  // Quarantined pages were rebuilt (or zero-filled) from the log rather
  // than loaded from the snapshot. Stamp them with the log's end LSN so an
  // incremental backup taken after this restart still treats them as
  // changed — their content no longer matches any earlier backup of the
  // same page.
  for (int64_t page : plan.quarantined_pages) {
    store->StampPageLsn(page, plan.end_lsn);
  }

  // Persist the recovered image so a crash after this point skips replay:
  //   * every dirty page (restores, and any foreground traffic so far);
  //   * every quarantined page, even when untouched — the full write heals
  //     the bad sector (remap) and restores a valid checksum;
  //   * every page still holding a first-update entry, such as one whose
  //     update never reached the durable log.
  // CheckpointPage resets the page's entry before it copies the page, so a
  // writer racing this loop re-enters the table and loses no redo.
  std::set<int64_t> to_checkpoint(plan.quarantined_pages.begin(),
                                  plan.quarantined_pages.end());
  for (int64_t page : store->DirtyPages()) to_checkpoint.insert(page);
  if (fut != nullptr) {
    for (int64_t page = 0; page < fut->num_pages(); ++page) {
      if (fut->Get(page) != kInvalidLsn) to_checkpoint.insert(page);
    }
  }
  for (int64_t page : to_checkpoint) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("recovery sweep stopped");
    }
    MMDB_RETURN_IF_ERROR(store->CheckpointPage(page, fut, wal));
  }
  // Every slot is now clean or holds a post-restart writer's entry, but a
  // table that failed its checksum still carries the flip in its
  // incremental XOR: recompute it from the slots.
  if (plan.fut_corrupt) fut->RebuildChecksum();
  return Status::OK();
}

StatusOr<RecoveryStats> RestoreInline(RecoverableStore* store,
                                      FirstUpdateTable* fut,
                                      const InstantRecoveryPlan& plan,
                                      const RecoveryOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryStats stats = plan.stats;
  const int64_t io_retries_before = store->stats().io_retries;
  for (int64_t record_id : plan.sweep_order) {
    const ResolvedRecord& endpoint = plan.pending.at(record_id);
    MMDB_RETURN_IF_ERROR(RestoreRecord(store, record_id, endpoint, options));
    ++(endpoint.undo ? stats.undo_applied : stats.redo_applied);
  }
  // No traffic has run, and every restored value came from the durable
  // log: the WAL rule holds without a fence.
  MMDB_RETURN_IF_ERROR(FinishRecovery(store, fut, /*wal=*/nullptr, plan));
  stats.retries += store->stats().io_retries - io_retries_before;
  // The restart waited for all of it; the instant-only fields stay zero.
  stats.wall_seconds = plan.stats.analysis_seconds + SecondsSince(t0);
  stats.analysis_seconds = 0;
  stats.pending_records = 0;
  return stats;
}

StatusOr<RecoveryStats> RecoverStore(RecoverableStore* store, Wal* wal,
                                     FirstUpdateTable* fut,
                                     RecoveryOptions options) {
  MMDB_ASSIGN_OR_RETURN(const InstantRecoveryPlan plan,
                        AnalyzeInstantRecovery(store, wal, fut, options));
  return RestoreInline(store, fut, plan, options);
}

}  // namespace mmdb
