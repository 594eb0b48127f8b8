#include "txn/mvcc.h"

#include <gtest/gtest.h>

#include <thread>

#include "db/database.h"
#include "txn/banking.h"
#include "txn/transaction_manager.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

/// Store-backed fixture for the raw MvccManager protocol: claim, write the
/// store in place, commit (or restore and abort).
class MvccTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRecords = 16;
  static constexpr int64_t kRecordSize = 16;

  MvccTest() : disk_(256), store_(&disk_, kRecords, kRecordSize, 256) {}

  static std::string Val(char c) { return std::string(kRecordSize, c); }

  void Put(int64_t r, const std::string& v) {
    ASSERT_TRUE(store_.WriteRecord(r, v, kInvalidLsn, nullptr).ok());
  }

  /// One committed record-plane write through the raw protocol.
  uint64_t CommitWrite(MvccManager* vm, TxnId txn, int64_t r,
                       const std::string& v,
                       uint64_t read_ts = MvccManager::kNoSnapshotCheck) {
    EXPECT_TRUE(vm->ClaimWrite(txn, r, read_ts).ok());
    Put(r, v);
    return vm->CommitTxn(txn, {r});
  }

  SimulatedDisk disk_;
  RecoverableStore store_;
};

TEST_F(MvccTest, DirectReadWhenNeverUpdated) {
  Put(3, Val('h'));
  MvccManager vm(&store_);
  const uint64_t snap = vm.BeginSnapshot();
  auto v = vm.Read(snap, 3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Val('h'));
  EXPECT_EQ(vm.metrics()->Get("mvcc.direct_reads"), 1);
  EXPECT_EQ(vm.metrics()->Get("mvcc.chain_reads"), 0);
  vm.EndSnapshot(snap);
}

TEST_F(MvccTest, SnapshotReaderSpansConcurrentCommit) {
  Put(0, Val('0'));
  MvccManager vm(&store_);
  CommitWrite(&vm, 1, 0, Val('1'));
  const uint64_t snap = vm.BeginSnapshot();  // sees v1
  CommitWrite(&vm, 2, 0, Val('2'));         // commits after the snapshot
  // The open snapshot still reads v1 — served from the version chain, since
  // the in-place value moved on.
  EXPECT_EQ(*vm.Read(snap, 0), Val('1'));
  EXPECT_GT(vm.metrics()->Get("mvcc.chain_reads"), 0);
  // A fresh snapshot sees v2, straight from the store.
  const uint64_t snap2 = vm.BeginSnapshot();
  EXPECT_EQ(*vm.Read(snap2, 0), Val('2'));
  vm.EndSnapshot(snap);
  vm.EndSnapshot(snap2);
}

TEST_F(MvccTest, WriteWriteConflictOnSameRecord) {
  Put(4, Val('a'));
  MvccManager vm(&store_);
  ASSERT_TRUE(vm.ClaimWrite(1, 4, MvccManager::kNoSnapshotCheck).ok());
  // First writer wins: the second claim is an immediate, non-blocking
  // kConflict — no deadlock is possible through claims.
  Status second = vm.ClaimWrite(2, 4, MvccManager::kNoSnapshotCheck);
  EXPECT_EQ(second.code(), StatusCode::kConflict);
  EXPECT_EQ(vm.metrics()->Get("mvcc.conflicts"), 1);
  // Re-claiming your own record is idempotent.
  EXPECT_TRUE(vm.ClaimWrite(1, 4, MvccManager::kNoSnapshotCheck).ok());
  // Once the owner aborts, the record is claimable again.
  vm.AbortTxn(1, {4});
  EXPECT_TRUE(vm.ClaimWrite(2, 4, MvccManager::kNoSnapshotCheck).ok());
  vm.AbortTxn(2, {4});
}

TEST_F(MvccTest, StaleSnapshotWriterLosesToNewerCommit) {
  Put(7, Val('a'));
  MvccManager vm(&store_);
  const uint64_t stale = vm.BeginSnapshot();   // read_ts before any commit
  CommitWrite(&vm, 1, 7, Val('b'));            // newer version exists now
  // A snapshot writer pinned before that commit must not blindly overwrite
  // it (lost update): first writer wins, the stale one conflicts.
  Status s = vm.ClaimWrite(2, 7, stale);
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  // A 2PL writer (already serialized by its X lock) is exempt.
  EXPECT_TRUE(vm.ClaimWrite(2, 7, MvccManager::kNoSnapshotCheck).ok());
  vm.AbortTxn(2, {7});
  vm.EndSnapshot(stale);
}

TEST_F(MvccTest, GcKeepsWhatOpenSnapshotsNeed) {
  Put(0, Val('0'));
  MvccManager vm(&store_);
  CommitWrite(&vm, 1, 0, Val('1'));
  const uint64_t snap = vm.BeginSnapshot();  // pins v1
  CommitWrite(&vm, 2, 0, Val('2'));
  CommitWrite(&vm, 3, 0, Val('3'));
  // Only v0 is invisible to every open and future snapshot.
  EXPECT_EQ(vm.Gc(), 1);
  EXPECT_EQ(*vm.Read(snap, 0), Val('1'));
  vm.EndSnapshot(snap);
  // v1 and v2 now collectable; v3 lives in the store, not the chain.
  EXPECT_EQ(vm.Gc(), 2);
  EXPECT_EQ(vm.num_versions(), 0);
  EXPECT_EQ(*vm.Read(vm.BeginSnapshot(), 0), Val('3'));
}

TEST_F(MvccTest, AbortRestoresStoreAndUnlinksPendingNode) {
  Put(5, Val('x'));
  MvccManager vm(&store_);
  ASSERT_TRUE(vm.ClaimWrite(9, 5, MvccManager::kNoSnapshotCheck).ok());
  Put(5, Val('y'));
  // Mid-flight, a snapshot still reads the committed pre-image (from the
  // pending chain node, since the in-place value is dirty).
  const uint64_t snap = vm.BeginSnapshot();
  EXPECT_EQ(*vm.Read(snap, 5), Val('x'));
  vm.EndSnapshot(snap);
  // Abort protocol: restore the store FIRST, then drop the claim.
  Put(5, Val('x'));
  vm.AbortTxn(9, {5});
  EXPECT_EQ(vm.num_versions(), 0);
  EXPECT_EQ(*vm.Read(vm.BeginSnapshot(), 5), Val('x'));
}

/// Full-stack: snapshot transactions through the TransactionManager get a
/// pinned read timestamp, repeatable reads across a concurrent commit, and
/// first-writer-wins kConflict instead of blocking.
TEST(MvccTxnTest, SnapshotTxnFirstWriterWinsThroughTransactionManager) {
  SimulatedDisk disk(4096);
  StableMemory stable(1 << 20);
  LogDevice device(4096, microseconds(0));
  RecoverableStore store(&disk, 64, 32, 4096);
  FirstUpdateTable fut(&stable, store.num_pages());
  LockManager locks;
  GroupCommitLogOptions gopts;
  gopts.flush_timeout = microseconds(50);
  GroupCommitLog wal({&device}, gopts);
  wal.Start();
  MvccManager vm(&store);
  TransactionManager tm(&store, &locks, &wal, &fut, 1, &vm);

  const std::string v0(32, '0'), v1(32, '1'), v2(32, '2');
  ASSERT_TRUE(store.WriteRecord(3, v0, kInvalidLsn, nullptr).ok());

  // Reader pinned before the writer commits: its snapshot must not move.
  const TxnId reader = tm.BeginSnapshotTxn();
  ASSERT_EQ(*tm.Read(reader, 3), v0);

  const TxnId w1 = tm.BeginSnapshotTxn();
  const TxnId w2 = tm.BeginSnapshotTxn();
  ASSERT_TRUE(tm.Update(w1, 3, v1).ok());
  // Write-write conflict on the same record: immediate kConflict, no block.
  Status st = tm.Update(w2, 3, v2);
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  ASSERT_TRUE(tm.Abort(w2).ok());
  ASSERT_TRUE(tm.Commit(w1).ok());

  // The pinned reader STILL sees v0 — a repeatable snapshot spanning the
  // concurrent commit — while a fresh snapshot txn sees v1.
  EXPECT_EQ(*tm.Read(reader, 3), v0);
  const TxnId fresh = tm.BeginSnapshotTxn();
  EXPECT_EQ(*tm.Read(fresh, 3), v1);
  ASSERT_TRUE(tm.Commit(fresh).ok());

  // The stale reader turning writer loses to the newer commit.
  st = tm.Update(reader, 3, v2);
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  ASSERT_TRUE(tm.Abort(reader).ok());

  EXPECT_EQ(tm.metrics()->Get("txn.snapshot_begun"), 4);
  EXPECT_GE(tm.metrics()->Get("txn.conflicts"), 2);
  wal.Stop();
}

/// Full-stack: lock-free snapshot scans run against concurrent banking
/// writers and must always see a CONSERVED total — the §6 claim.
TEST(MvccTxnTest, SnapshotScansSeeConservedTotalUnderLoad) {
  SimulatedDisk disk(4096);
  StableMemory stable(1 << 20);
  LogDevice device(4096, microseconds(0));
  RecoverableStore store(&disk, 512, 72, 4096);
  FirstUpdateTable fut(&stable, store.num_pages());
  LockManager locks;
  GroupCommitLogOptions gopts;
  gopts.flush_timeout = microseconds(100);
  GroupCommitLog wal({&device}, gopts);
  wal.Start();
  MvccManager vm(&store);
  TransactionManager tm(&store, &locks, &wal, &fut, 1, &vm);

  BankingOptions bopts;
  bopts.num_accounts = 512;
  ASSERT_TRUE(InitAccounts(&store, bopts).ok());
  const int64_t expected_total =
      bopts.num_accounts * bopts.initial_balance;

  // Seed some committed history synchronously so the scans exercise the
  // version chains even if the writer threads start slowly.
  {
    Random rng(55);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(RunOneTransfer(&tm, bopts, &rng).ok());
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t]() {
      Random rng(100 + t);
      while (!stop.load()) {
        (void)RunOneTransfer(&tm, bopts, &rng);
      }
    });
  }

  int scans = 0;
  for (int i = 0; i < 30; ++i) {
    const uint64_t snap = vm.BeginSnapshot();
    int64_t total = 0;
    for (int64_t r = 0; r < bopts.num_accounts; ++r) {
      auto v = vm.Read(snap, r);
      ASSERT_TRUE(v.ok());
      total += DecodeAccount(*v);
    }
    vm.EndSnapshot(snap);
    EXPECT_EQ(total, expected_total) << "scan " << i;
    ++scans;
    if (i % 10 == 9) vm.Gc();
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(scans, 30);

  // Deterministic chain-read exercise (the concurrent phase may not commit
  // mid-scan on a small machine): pin a snapshot, commit a transfer AFTER
  // it, and scan — the transfer's two records must be served from chains,
  // and the pinned total must still be conserved.
  const uint64_t pinned = vm.BeginSnapshot();
  {
    Random rng(7);
    ASSERT_TRUE(RunOneTransfer(&tm, bopts, &rng).ok());
  }
  int64_t pinned_total = 0;
  for (int64_t r = 0; r < bopts.num_accounts; ++r) {
    pinned_total += DecodeAccount(*vm.Read(pinned, r));
  }
  vm.EndSnapshot(pinned);
  EXPECT_EQ(pinned_total, expected_total);
  EXPECT_GT(vm.metrics()->Get("mvcc.chain_reads"), 0);
  wal.Stop();
  // With no snapshot open, GC drains every retained version.
  vm.Gc();
  EXPECT_EQ(vm.num_versions(), 0);
}

/// Contrast case, deterministic: with a transfer paused between its debit
/// and its credit, a DIRECT (unversioned) scan observes the torn state,
/// while a snapshot scan through the MvccManager still sees the conserved
/// total — the precise anomaly §6's versioning removes.
TEST(MvccTxnTest, DirectScanTearsWithoutVersions) {
  SimulatedDisk disk(4096);
  StableMemory stable(1 << 20);
  LogDevice device(4096, microseconds(0));
  RecoverableStore store(&disk, 64, 72, 4096);
  FirstUpdateTable fut(&stable, store.num_pages());
  LockManager locks;
  GroupCommitLogOptions gopts;
  gopts.flush_timeout = microseconds(50);
  GroupCommitLog wal({&device}, gopts);
  wal.Start();
  MvccManager vm(&store);
  TransactionManager tm(&store, &locks, &wal, &fut, 1, &vm);

  BankingOptions bopts;
  bopts.num_accounts = 64;
  ASSERT_TRUE(InitAccounts(&store, bopts).ok());
  const int64_t expected_total =
      bopts.num_accounts * bopts.initial_balance;

  // Debit account 0 but pause before the matching credit.
  const TxnId txn = tm.Begin();
  ASSERT_TRUE(
      tm.Update(txn, 0, EncodeAccount(bopts.initial_balance - 100,
                                      bopts.record_size))
          .ok());

  // Direct scan: sees the half-done transfer (total short by 100).
  int64_t direct_total = 0;
  std::string rec;
  for (int64_t r = 0; r < bopts.num_accounts; ++r) {
    ASSERT_TRUE(store.ReadRecord(r, &rec).ok());
    direct_total += DecodeAccount(rec);
  }
  EXPECT_EQ(direct_total, expected_total - 100);

  // Snapshot scan: conserved, because the uncommitted debit is invisible.
  const uint64_t snap = vm.BeginSnapshot();
  int64_t snapshot_total = 0;
  for (int64_t r = 0; r < bopts.num_accounts; ++r) {
    auto v = vm.Read(snap, r);
    ASSERT_TRUE(v.ok());
    snapshot_total += DecodeAccount(*v);
  }
  vm.EndSnapshot(snap);
  EXPECT_EQ(snapshot_total, expected_total);

  // Finish the transfer; a fresh snapshot now includes it.
  ASSERT_TRUE(
      tm.Update(txn, 1, EncodeAccount(bopts.initial_balance + 100,
                                      bopts.record_size))
          .ok());
  ASSERT_TRUE(tm.Commit(txn).ok());
  const uint64_t snap2 = vm.BeginSnapshot();
  int64_t total2 = 0;
  for (int64_t r = 0; r < bopts.num_accounts; ++r) {
    total2 += DecodeAccount(*vm.Read(snap2, r));
  }
  vm.EndSnapshot(snap2);
  EXPECT_EQ(total2, expected_total);
  wal.Stop();
}

/// Recovery regression (kSqlStmtTxnBase guard): after a crash with both SQL
/// statement commits and record-plane MVCC commits in the log, recovery
/// rebuilds the store, re-attaches a fresh version manager, and keeps the
/// two id namespaces disjoint — and the rebuilt database serves correct
/// snapshot reads and writes again.
TEST(MvccRecoveryTest, RecoveryRebuildsChainsWithDisjointIdSpaces) {
  Database db;
  Database::TxnPlaneOptions topts;
  topts.num_records = 100;
  topts.record_size = 32;
  topts.log_write_latency = std::chrono::microseconds(0);
  topts.enable_versioning = true;
  ASSERT_TRUE(db.EnableTransactions(topts).ok());
  ASSERT_NE(db.version_manager(), nullptr);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (1)").ok());

  auto* tm = db.txn_manager();
  const std::string committed(32, 'A');
  const std::string uncommitted(32, 'L');
  const TxnId winner = tm->BeginSnapshotTxn();
  EXPECT_LT(winner, kSqlStmtTxnBase);
  ASSERT_TRUE(tm->Update(winner, 7, committed).ok());
  ASSERT_TRUE(tm->Commit(winner).ok());
  // In flight at the crash: recovery must undo it, even with SQL statement
  // commit records landing in the log after its update.
  const TxnId loser = tm->BeginSnapshotTxn();
  ASSERT_TRUE(tm->Update(loser, 7, uncommitted).ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (2)").ok());

  ASSERT_TRUE(db.Crash().ok());
  auto stats = db.Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->max_txn_id, kSqlStmtTxnBase);
  EXPECT_GE(stats->max_sql_stmt_txn_id, kSqlStmtTxnBase);

  // The rebuilt plane has a fresh (empty) version manager wired into the
  // new transaction manager, and snapshot reads see the winner's value.
  MvccManager* vm = db.version_manager();
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(db.txn_manager()->versions(), vm);
  EXPECT_EQ(vm->num_versions(), 0);
  const TxnId reader = db.txn_manager()->BeginSnapshotTxn();
  EXPECT_EQ(*db.txn_manager()->Read(reader, 7), committed);
  ASSERT_TRUE(db.txn_manager()->Commit(reader).ok());

  // And the MVCC write path works on the recovered plane.
  const TxnId writer = db.txn_manager()->BeginSnapshotTxn();
  const std::string post(32, 'P');
  ASSERT_TRUE(db.txn_manager()->Update(writer, 7, post).ok());
  ASSERT_TRUE(db.txn_manager()->Commit(writer).ok());
  const TxnId check = db.txn_manager()->BeginSnapshotTxn();
  EXPECT_EQ(*db.txn_manager()->Read(check, 7), post);
  ASSERT_TRUE(db.txn_manager()->Commit(check).ok());
}

}  // namespace
}  // namespace mmdb
