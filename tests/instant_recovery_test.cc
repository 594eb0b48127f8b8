#include "txn/instant_recovery.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "server/server.h"
#include "server/session.h"
#include "sim/fault_injector.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

constexpr int64_t kRecords = 256;
constexpr int32_t kRecordSize = 32;

Database::TxnPlaneOptions PlaneOptions() {
  Database::TxnPlaneOptions topts;
  topts.num_records = kRecords;
  topts.record_size = kRecordSize;
  topts.log_write_latency = microseconds(0);
  return topts;
}

std::string Val(char tag, int64_t i) {
  std::string v = tag + std::to_string(i);
  v.resize(kRecordSize, '\0');
  return v;
}

void CommitValue(Database* db, int64_t record, const std::string& value) {
  TransactionManager* tm = db->txn_manager();
  const TxnId t = tm->Begin();
  ASSERT_TRUE(tm->Update(t, record, value).ok());
  ASSERT_TRUE(tm->Commit(t).ok());
}

/// A deterministic pre-crash history: committed generations, a mid-workload
/// checkpoint (so the first-update table trims part of the log), SQL commit
/// records interleaved, and in-flight losers whose updates are flushed by a
/// later group commit. Run identically against twin databases.
void RunWorkload(Database* db) {
  for (int64_t i = 0; i < kRecords; ++i) CommitValue(db, i, Val('a', i));
  ASSERT_TRUE(db->CheckpointNow().ok());
  for (int64_t i = 0; i < kRecords; i += 2) CommitValue(db, i, Val('b', i));
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE t (x INT64)").ok());
  ASSERT_TRUE(db->ExecuteSql("INSERT INTO t VALUES (1)").ok());
  // In-flight at the crash: recovery must restore the committed 'b'/'a'
  // image underneath them.
  TransactionManager* tm = db->txn_manager();
  const TxnId loser = tm->Begin();
  ASSERT_TRUE(tm->Update(loser, 0, Val('L', 0)).ok());
  ASSERT_TRUE(tm->Update(loser, 7, Val('L', 7)).ok());
  // A later durable commit flushes the loser's buffered updates into the
  // log (group commit), so both twins crash with identical durable logs.
  CommitValue(db, 1, Val('c', 1));
}

std::vector<std::string> AllRecords(Database* db) {
  std::vector<std::string> out(kRecords);
  for (int64_t i = 0; i < kRecords; ++i) {
    EXPECT_TRUE(db->recoverable_store()->ReadRecord(i, &out[i]).ok());
  }
  return out;
}

TEST(InstantRecoveryTest, FinalStateMatchesBlockingRecoveryByteForByte) {
  Database blocking_db, instant_db;
  ASSERT_TRUE(blocking_db.EnableTransactions(PlaneOptions()).ok());
  ASSERT_TRUE(instant_db.EnableTransactions(PlaneOptions()).ok());
  RunWorkload(&blocking_db);
  RunWorkload(&instant_db);
  ASSERT_TRUE(blocking_db.Crash().ok());
  ASSERT_TRUE(instant_db.Crash().ok());

  auto blocking_stats = blocking_db.Recover();
  ASSERT_TRUE(blocking_stats.ok());

  RecoveryOptions ropts;
  ropts.mode = RecoveryMode::kInstant;
  auto instant_stats = instant_db.Recover(ropts);
  ASSERT_TRUE(instant_stats.ok());
  EXPECT_GT(instant_stats->pending_records, 0);
  ASSERT_TRUE(instant_db.WaitRecoveryDrained().ok());
  ASSERT_TRUE(instant_db.recovery_controller()->complete());
  EXPECT_EQ(instant_db.recovery_controller()->remaining(), 0);

  // Byte-identical store images.
  EXPECT_EQ(AllRecords(&blocking_db), AllRecords(&instant_db));
  // The same first-update table: verified, and empty with no traffic since.
  FirstUpdateTable* blocking_fut = blocking_db.first_update_table();
  FirstUpdateTable* instant_fut = instant_db.first_update_table();
  EXPECT_TRUE(blocking_fut->Verify());
  EXPECT_TRUE(instant_fut->Verify());
  EXPECT_EQ(blocking_fut->MinLsn(), kInvalidLsn);
  EXPECT_EQ(instant_fut->MinLsn(), kInvalidLsn);

  // Identical id re-seeding on both planes: analysis saw the same log.
  EXPECT_EQ(blocking_stats->max_txn_id, instant_stats->max_txn_id);
  EXPECT_EQ(blocking_stats->max_sql_stmt_txn_id,
            instant_stats->max_sql_stmt_txn_id);
  EXPECT_EQ(blocking_db.txn_manager()->Begin(),
            instant_db.txn_manager()->Begin());

  // Every indexed record was restored exactly once, by one path or the
  // other.
  const RecoveryStats rs = instant_db.recovery_controller()->stats();
  EXPECT_EQ(rs.ondemand_records + rs.sweep_records, rs.pending_records);
}

TEST(InstantRecoveryTest, OnDemandReplayServesReadsBeforeSweepArrives) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  RunWorkload(&db);
  ASSERT_TRUE(db.Crash().ok());

  RecoveryOptions ropts;
  ropts.mode = RecoveryMode::kInstant;
  ropts.sweep_batch_size = 1;           // crawl...
  ropts.sweep_pause = microseconds(2000);  // ...so reads beat the sweep
  ASSERT_TRUE(db.Recover(ropts).ok());

  // Immediately read records the throttled sweep cannot have reached yet:
  // the access guard replays their chains on demand.
  std::string out;
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(7, &out).ok());
  EXPECT_EQ(out, Val('a', 7));  // loser's 'L' undone to the committed image
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(1, &out).ok());
  EXPECT_EQ(out, Val('c', 1));
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(255, &out).ok());
  EXPECT_EQ(out, Val('a', 255));

  const RecoveryStats mid = db.recovery_controller()->stats();
  EXPECT_GT(mid.ondemand_records, 0);

  ASSERT_TRUE(db.WaitRecoveryDrained().ok());
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(7, &out).ok());
  EXPECT_EQ(out, Val('a', 7));  // sweep must not clobber restored records
}

TEST(InstantRecoveryTest, BudgetZeroRefusesWithRecoveringThenSweepHeals) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  RunWorkload(&db);
  ASSERT_TRUE(db.Crash().ok());

  RecoveryOptions ropts;
  ropts.mode = RecoveryMode::kInstant;
  ropts.ondemand_replay_budget = 0;  // every on-demand replay is over budget
  ropts.sweep_batch_size = 1;
  ropts.sweep_pause = microseconds(500);
  ASSERT_TRUE(db.Recover(ropts).ok());

  // Find a record the sweep has not restored yet; its access must be
  // refused without side effects. (The sweep may win the race record by
  // record, so scan until we catch one still pending.)
  std::string out;
  bool saw_recovering = false;
  for (int64_t i = kRecords - 1; i >= 0 && !saw_recovering; --i) {
    const Status s = db.recoverable_store()->ReadRecord(i, &out);
    if (s.code() == StatusCode::kRecovering) saw_recovering = true;
  }
  if (saw_recovering) {
    EXPECT_GT(db.recovery_controller()->stats().ondemand_budget_exceeded, 0);
  }
  ASSERT_TRUE(db.WaitRecoveryDrained().ok());
  // After the sweep drains every access succeeds with the correct image.
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(7, &out).ok());
  EXPECT_EQ(out, Val('a', 7));
  EXPECT_EQ(db.recovery_controller()->stats().ondemand_records, 0);
}

TEST(InstantRecoveryTest, SessionsOpenAndCommitWhileSweepRuns) {
  Database db;
  auto topts = PlaneOptions();
  topts.enable_versioning = true;
  ASSERT_TRUE(db.EnableTransactions(topts).ok());
  RunWorkload(&db);
  ASSERT_TRUE(db.Crash().ok());

  RecoveryOptions ropts;
  ropts.mode = RecoveryMode::kInstant;
  ropts.sweep_batch_size = 1;
  ropts.sweep_pause = microseconds(2000);
  ASSERT_TRUE(db.Recover(ropts).ok());

  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // A write statement commits durably while recovery is still sweeping —
  // the restart-availability claim in one assertion.
  const bool still_sweeping = !db.recovery_controller()->complete();
  ASSERT_TRUE((*session)->ExecuteSql("INSERT INTO t VALUES (42)").ok());
  EXPECT_TRUE(still_sweeping);

  // Record-plane traffic during the sweep: on-demand replay + overwrite.
  ASSERT_TRUE((*session)->UpdateRecord(200, Val('z', 200)).ok());
  auto read_back = (*session)->ReadRecord(200);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, Val('z', 200));

  ASSERT_TRUE(db.WaitRecoveryDrained().ok());
  // The sweep must not resurrect the pre-crash image over the new write.
  std::string out;
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(200, &out).ok());
  EXPECT_EQ(out, Val('z', 200));

  const std::string json = db.MetricsJson();
  EXPECT_NE(json.find("\"server.admission.during_recovery\":1"),
            std::string::npos)
      << json;
  ASSERT_TRUE(server.CloseSession((*session)->id()).ok());
  server.Shutdown();
}

TEST(InstantRecoveryTest, CrashDuringSweepReentersAnalysisCleanly) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  RunWorkload(&db);
  ASSERT_TRUE(db.Crash().ok());

  RecoveryOptions ropts;
  ropts.mode = RecoveryMode::kInstant;
  ropts.sweep_batch_size = 1;
  ropts.sweep_pause = microseconds(1000);
  ASSERT_TRUE(db.Recover(ropts).ok());
  // Touch a few records on demand, then crash mid-sweep.
  std::string out;
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(3, &out).ok());
  ASSERT_TRUE(db.recoverable_store()->ReadRecord(250, &out).ok());
  ASSERT_TRUE(db.Crash().ok());

  // Second restart, instant again; then prove the final image also matches
  // a blocking twin that saw the same single crash point.
  ASSERT_TRUE(db.Recover(ropts).ok());
  ASSERT_TRUE(db.WaitRecoveryDrained().ok());

  Database twin;
  ASSERT_TRUE(twin.EnableTransactions(PlaneOptions()).ok());
  RunWorkload(&twin);
  ASSERT_TRUE(twin.Crash().ok());
  ASSERT_TRUE(twin.Recover().ok());
  EXPECT_EQ(AllRecords(&db), AllRecords(&twin));

  // And a blocking recovery after a crash mid-sweep also lands correctly
  // (the sweep left snapshot + log + first-update table consistent).
  ASSERT_TRUE(db.Crash().ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(AllRecords(&db), AllRecords(&twin));
}

TEST(InstantRecoveryTest, QuarantinedSnapshotPageRebuildsDuringSweep) {
  FaultInjector injector;
  Database db;
  auto topts = PlaneOptions();
  topts.fault_injector = &injector;
  ASSERT_TRUE(db.EnableTransactions(topts).ok());
  RunWorkload(&db);
  ASSERT_TRUE(db.Crash().ok());
  // Page 0 of the snapshot is a bad sector at reload: instant analysis
  // must quarantine it, drop the first-update fast path, and index its
  // records from the full log.
  injector.MarkPermanentError(FaultDevice::kDataDisk,
                              db.recoverable_store()->snapshot_file_id(), 0);

  RecoveryOptions ropts;
  ropts.mode = RecoveryMode::kInstant;
  auto stats = db.Recover(ropts);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->snapshot_pages_quarantined, 1);
  EXPECT_TRUE(stats->degraded_mode);
  ASSERT_TRUE(db.WaitRecoveryDrained().ok());

  // Every record on the quarantined page carries its committed image, and
  // the final checkpoint healed the bad sector (rewrite = sector remap).
  const int per_page = db.recoverable_store()->records_per_page();
  std::string out;
  for (int64_t i = 0; i < per_page; ++i) {
    ASSERT_TRUE(db.recoverable_store()->ReadRecord(i, &out).ok());
    if (i == 0) {
      EXPECT_EQ(out, Val('b', 0));
    } else if (i == 1) {
      EXPECT_EQ(out, Val('c', 1));
    } else {
      EXPECT_EQ(out, i % 2 == 0 ? Val('b', i) : Val('a', i));
    }
  }
  ASSERT_TRUE(db.Crash().ok());
  auto again = db.Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->snapshot_pages_quarantined, 0);
}

}  // namespace
}  // namespace mmdb
