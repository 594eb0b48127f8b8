// Differential consistency harness for online hot backup (DESIGN.md §13):
// backups taken WHILE a seeded banking workload commits transfers must
// restore to a transaction-consistent image — byte-identical to what a
// blocking checkpoint of the same LSN fence would have produced — and
// full -> incremental -> incremental chains, point-in-time restore, and
// the quarantine-heal page-LSN regression are covered alongside.

#include "backup/hot_backup.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "sim/fault_injector.h"
#include "txn/banking.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

constexpr int64_t kRecords = 256;
constexpr int32_t kRecordSize = 32;
constexpr int64_t kPageSize = 4096;

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

TxnId CommitValue(Database* db, int64_t record, const std::string& value) {
  TransactionManager* tm = db->txn_manager();
  const TxnId t = tm->Begin();
  EXPECT_TRUE(tm->Update(t, record, value).ok());
  EXPECT_TRUE(tm->Commit(t).ok());
  return t;
}

std::vector<std::string> AllRecords(RecoverableStore* store) {
  std::vector<std::string> out(store->num_records());
  for (int64_t i = 0; i < store->num_records(); ++i) {
    EXPECT_TRUE(store->ReadRecord(i, &out[i]).ok());
  }
  return out;
}

/// A fresh destination record plane to restore into: disk + stable memory
/// + empty store + first-update table, detached from any primary.
struct RestoreTarget {
  RestoreTarget(int64_t num_records = kRecords,
                int32_t record_size = kRecordSize)
      : disk(kPageSize),
        stable(1 << 20),
        store(&disk, num_records, record_size, kPageSize),
        fut(&stable, store.num_pages()) {}

  SimulatedDisk disk;
  StableMemory stable;
  RecoverableStore store;
  FirstUpdateTable fut;
};

TEST(HotBackup, FullBackupRestoresByteForByte) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  for (int64_t i = 0; i < kRecords; ++i) CommitValue(&db, i, Val('a', i));
  ASSERT_TRUE(db.CheckpointNow().ok());
  for (int64_t i = 0; i < kRecords; i += 3) CommitValue(&db, i, Val('b', i));

  auto img = db.backup()->RunHotBackup();
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_TRUE(img->is_full());
  EXPECT_EQ(static_cast<int64_t>(img->pages.size()),
            db.recoverable_store()->num_pages());

  // Restore through the Database wrapper into a second database.
  Database dest;
  ASSERT_TRUE(dest.EnableTransactions(PlaneOptions()).ok());
  ASSERT_TRUE(dest.RestoreFromBackup({&*img}).ok());
  EXPECT_EQ(AllRecords(db.recoverable_store()),
            AllRecords(dest.recoverable_store()));

  // The destination snapshot was checkpointed at restore: it survives a
  // crash + recovery with an empty log.
  ASSERT_TRUE(dest.Crash().ok());
  ASSERT_TRUE(dest.Recover().ok());
  EXPECT_EQ(AllRecords(db.recoverable_store()),
            AllRecords(dest.recoverable_store()));
}

TEST(HotBackup, InFlightTransactionIsRolledBackAtRestore) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  for (int64_t i = 0; i < 8; ++i) CommitValue(&db, i, Val('a', i));

  // In flight across the whole backup; its updates ARE durable (the end
  // fence waits past them) but no commit record exists below the fence.
  TransactionManager* tm = db.txn_manager();
  const TxnId loser = tm->Begin();
  ASSERT_TRUE(tm->Update(loser, 0, Val('L', 0)).ok());
  ASSERT_TRUE(tm->Update(loser, 7, Val('L', 7)).ok());

  auto img = db.backup()->RunHotBackup();
  ASSERT_TRUE(img.ok()) << img.status().ToString();

  RestoreTarget dest;
  ASSERT_TRUE(
      BackupManager::RestoreChain({&*img}, &dest.store, &dest.fut).ok());
  std::string v;
  ASSERT_TRUE(dest.store.ReadRecord(0, &v).ok());
  EXPECT_EQ(v, Val('a', 0));
  ASSERT_TRUE(dest.store.ReadRecord(7, &v).ok());
  EXPECT_EQ(v, Val('a', 7));

  ASSERT_TRUE(tm->Abort(loser).ok());
}

// Regression: Recover() replaces the TransactionManager, and the backup
// manager kept the one it was built with. A full backup after recovery
// read the freed manager for its active-transaction bound (a
// heap-use-after-free under ASan) instead of the live one.
TEST(HotBackup, FullBackupAfterRecoverSeesLiveTransactions) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  for (int64_t i = 0; i < 8; ++i) CommitValue(&db, i, Val('a', i));
  ASSERT_TRUE(db.Crash().ok());
  ASSERT_TRUE(db.Recover().ok());

  TransactionManager* tm = db.txn_manager();
  const TxnId open = tm->Begin();
  ASSERT_TRUE(tm->Update(open, 0, Val('o', 0)).ok());
  const Lsn open_begin = tm->OldestActiveBeginLsn();
  ASSERT_NE(open_begin, kInvalidLsn);
  // Later commits push the durable horizon past the open one's begin, so
  // only the active-transaction bound keeps its records in the window.
  for (int64_t i = 1; i < 8; ++i) CommitValue(&db, i, Val('b', i));

  auto img = db.backup()->RunHotBackup();
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_LE(img->capture_from, open_begin);
  ASSERT_TRUE(tm->Abort(open).ok());
}

// The differential harness proper: transfers commit on 8 threads while
// backups run. Every backup must restore to a transaction-consistent cut —
// the banking conservation invariant (total balance never changes) detects
// any torn or non-atomic capture — and a backup taken after the workload
// quiesces must equal the primary byte for byte, i.e. exactly what a
// blocking checkpoint at that fence would contain.
TEST(HotBackup, ConcurrentBankingWorkloadRestoresConsistently) {
  BankingOptions bopts;
  bopts.num_accounts = kRecords;
  bopts.record_size = kRecordSize;
  bopts.num_threads = 8;
  bopts.duration = std::chrono::milliseconds(300);

  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  ASSERT_TRUE(InitAccounts(db.recoverable_store(), bopts).ok());
  const int64_t expected_total = bopts.num_accounts * bopts.initial_balance;

  BankingResult result;
  std::thread worker([&] {
    result = RunBankingWorkload(db.txn_manager(), bopts);
  });

  // Hot backups in the thick of it.
  std::vector<BackupImage> images;
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    auto img = db.backup()->RunHotBackup();
    ASSERT_TRUE(img.ok()) << img.status().ToString();
    images.push_back(std::move(*img));
  }
  worker.join();
  ASSERT_GT(result.committed, 0);

  for (const BackupImage& img : images) {
    RestoreTarget dest;
    ASSERT_TRUE(
        BackupManager::RestoreChain({&img}, &dest.store, &dest.fut).ok());
    auto total = TotalBalance(&dest.store, bopts);
    ASSERT_TRUE(total.ok());
    EXPECT_EQ(*total, expected_total) << "backup " << img.backup_id
                                      << " captured a non-atomic cut";
  }

  // Quiesced: the hot image at this fence IS the blocking-checkpoint twin.
  auto final_img = db.backup()->RunHotBackup();
  ASSERT_TRUE(final_img.ok());
  RestoreTarget dest;
  ASSERT_TRUE(
      BackupManager::RestoreChain({&*final_img}, &dest.store, &dest.fut)
          .ok());
  EXPECT_EQ(AllRecords(db.recoverable_store()), AllRecords(&dest.store));
}

TEST(HotBackup, IncrementalChainSkipsCleanPagesAndRestores) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  for (int64_t i = 0; i < kRecords; ++i) CommitValue(&db, i, Val('a', i));

  auto full = db.backup()->RunHotBackup();
  ASSERT_TRUE(full.ok());

  // Generation 'b' touches only the first page's records.
  const int64_t per_page = db.recoverable_store()->records_per_page();
  for (int64_t i = 0; i < per_page; ++i) CommitValue(&db, i, Val('b', i));
  const std::vector<std::string> state_at_inc1 =
      AllRecords(db.recoverable_store());

  BackupOptions inc;
  inc.base_backup_id = full->backup_id;
  auto inc1 = db.backup()->RunHotBackup(inc);
  ASSERT_TRUE(inc1.ok());
  EXPECT_FALSE(inc1->is_full());
  EXPECT_LT(static_cast<int64_t>(inc1->pages.size()),
            db.recoverable_store()->num_pages())
      << "incremental should skip pages untouched since the base";
  EXPECT_GE(static_cast<int64_t>(inc1->pages.size()), 1);

  // Generation 'c' touches the second page only.
  for (int64_t i = per_page; i < 2 * per_page && i < kRecords; ++i) {
    CommitValue(&db, i, Val('c', i));
  }
  BackupOptions inc2o;
  inc2o.base_backup_id = inc1->backup_id;
  auto inc2 = db.backup()->RunHotBackup(inc2o);
  ASSERT_TRUE(inc2.ok());

  // Whole chain == primary now.
  {
    RestoreTarget dest;
    ASSERT_TRUE(BackupManager::RestoreChain({&*full, &*inc1, &*inc2},
                                            &dest.store, &dest.fut)
                    .ok());
    EXPECT_EQ(AllRecords(db.recoverable_store()), AllRecords(&dest.store));
  }
  // Prefix chain == the state frozen at inc1's fence.
  {
    RestoreTarget dest;
    ASSERT_TRUE(
        BackupManager::RestoreChain({&*full, &*inc1}, &dest.store, &dest.fut)
            .ok());
    EXPECT_EQ(state_at_inc1, AllRecords(&dest.store));
  }

  EXPECT_EQ(db.metrics()->Get("backup.backups_taken"), 3);
  EXPECT_EQ(db.metrics()->Get("backup.incremental_backups"), 2);
  EXPECT_GT(db.metrics()->Get("backup.pages_skipped"), 0);
}

TEST(HotBackup, PointInTimeRestoreToMidWorkloadCommit) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  for (int64_t i = 0; i < kRecords; ++i) CommitValue(&db, i, Val('a', i));

  auto full = db.backup()->RunHotBackup();
  ASSERT_TRUE(full.ok());

  // Ten generations on record 5 after the backup; remember each commit id
  // and the state it left behind.
  std::vector<TxnId> commits;
  for (int g = 0; g < 10; ++g) {
    commits.push_back(CommitValue(&db, 5, Val('p', g)));
  }
  Wal* wal = db.wal();
  const Lsn horizon = wal->DurableHorizon();
  ASSERT_GT(horizon, full->end_lsn);
  const std::vector<LogRecord> tail =
      wal->ReadDurableRange(full->end_lsn, horizon);

  for (int g = 0; g < 10; g += 3) {
    RestoreTarget dest;
    RestoreOptions ropts;
    ropts.target_commit_txn = commits[g];
    ropts.extra_log = tail;
    ASSERT_TRUE(BackupManager::RestoreChain({&*full}, &dest.store, &dest.fut,
                                            ropts)
                    .ok());
    std::string v;
    ASSERT_TRUE(dest.store.ReadRecord(5, &v).ok());
    EXPECT_EQ(v, Val('p', g)) << "PITR to commit " << g;
    // Unrelated records are the 'a' generation throughout.
    ASSERT_TRUE(dest.store.ReadRecord(6, &v).ok());
    EXPECT_EQ(v, Val('a', 6));
  }

  // A target the captured log has never seen.
  RestoreTarget dest;
  RestoreOptions ropts;
  ropts.target_commit_txn = 999'999;
  ropts.extra_log = tail;
  EXPECT_EQ(
      BackupManager::RestoreChain({&*full}, &dest.store, &dest.fut, ropts)
          .code(),
      StatusCode::kNotFound);
}

TEST(HotBackup, ChainValidationRejectsBadInput) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(PlaneOptions()).ok());
  CommitValue(&db, 0, Val('a', 0));
  auto full = db.backup()->RunHotBackup();
  ASSERT_TRUE(full.ok());

  RestoreTarget dest;
  // Empty chain.
  EXPECT_EQ(BackupManager::RestoreChain({}, &dest.store, &dest.fut).code(),
            StatusCode::kInvalidArgument);
  // Chain starting with an incremental.
  BackupImage fake = *full;
  fake.base_backup_id = full->backup_id;
  EXPECT_EQ(BackupManager::RestoreChain({&fake}, &dest.store, &dest.fut)
                .code(),
            StatusCode::kInvalidArgument);
  // Broken link.
  BackupImage orphan = *full;
  orphan.backup_id = 77;
  orphan.base_backup_id = 42;  // not full->backup_id
  EXPECT_EQ(BackupManager::RestoreChain({&*full, &orphan}, &dest.store,
                                        &dest.fut)
                .code(),
            StatusCode::kInvalidArgument);
  // Geometry mismatch.
  RestoreTarget small(kRecords / 2, kRecordSize);
  EXPECT_EQ(BackupManager::RestoreChain({&*full}, &small.store, &small.fut)
                .code(),
            StatusCode::kInvalidArgument);
  // Incremental onto an unknown base.
  BackupOptions bad;
  bad.base_backup_id = 12345;
  EXPECT_EQ(db.backup()->RunHotBackup(bad).status().code(),
            StatusCode::kNotFound);
}

// Regression (PR 8 satellite): a page quarantined at recovery load and
// healed by replay/zero-fill must carry a page LSN afterwards — otherwise
// the next incremental backup skips it and a restore of that chain
// resurrects the page's PRE-CRASH bytes, diverging from the primary.
TEST(HotBackup, HealedQuarantinedPageIsCapturedByIncremental) {
  FaultInjectorOptions fopts;
  fopts.seed = 7;
  FaultInjector injector(fopts);

  auto topts = PlaneOptions();
  topts.fault_injector = &injector;
  Database db;
  ASSERT_TRUE(db.EnableTransactions(topts).ok());
  RecoverableStore* store = db.recoverable_store();
  ASSERT_GE(store->num_pages(), 2);
  const int64_t victim_page = 1;
  const int64_t per_page = store->records_per_page();

  // Raw-seeded data (InitAccounts-style, never logged): the snapshot is
  // its ONLY durable copy, so when the victim page's snapshot dies the
  // heal can only zero-fill it — replay has no records to rebuild from.
  for (int64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(store->WriteRecord(i, Val('a', i), 0, nullptr).ok());
  }
  ASSERT_TRUE(db.CheckpointNow().ok());

  auto full = db.backup()->RunHotBackup();
  ASSERT_TRUE(full.ok());

  // Post-backup traffic on ANOTHER page, so the post-crash log is
  // non-empty and the heal stamp lands past the full backup's fence.
  CommitValue(&db, 0, Val('z', 0));

  // The victim page's snapshot copy dies with the crash.
  injector.MarkPermanentError(FaultDevice::kDataDisk,
                              store->snapshot_file_id(), victim_page);
  ASSERT_TRUE(db.Crash().ok());
  auto stats = db.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->snapshot_pages_quarantined, 0);

  // Primary truth now: the victim page healed to zeros — the full
  // backup's copy of it ('a' values) is STALE.
  std::string v;
  ASSERT_TRUE(store->ReadRecord(victim_page * per_page, &v).ok());
  EXPECT_EQ(v, std::string(kRecordSize, '\0'));

  BackupOptions inc;
  inc.base_backup_id = full->backup_id;
  auto inc1 = db.backup()->RunHotBackup(inc);
  ASSERT_TRUE(inc1.ok()) << inc1.status().ToString();
  // THE regression assertion: the healed page must be in the increment.
  EXPECT_EQ(inc1->pages.count(victim_page), 1u)
      << "healed quarantined page missing from incremental backup";

  RestoreTarget dest;
  ASSERT_TRUE(BackupManager::RestoreChain({&*full, &*inc1}, &dest.store,
                                          &dest.fut)
                  .ok());
  EXPECT_EQ(AllRecords(store), AllRecords(&dest.store));
}

}  // namespace
}  // namespace mmdb
