#include "txn/recovery.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/check.h"

#include "txn/checkpoint.h"
#include "txn/instant_recovery.h"
#include "txn/transaction_manager.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

/// Full §5 stack that can be crashed and recovered repeatedly.
class RecoveryTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRecords = 128;
  static constexpr int32_t kRecordSize = 16;

  RecoveryTest()
      : disk_(256),
        stable_(1 << 20),
        device_(256, microseconds(0)),
        store_(&disk_, kRecords, kRecordSize, 256),
        fut_(&stable_, store_.num_pages()) {
    GroupCommitLogOptions opts;
    opts.flush_timeout = microseconds(200);
    wal_ = std::make_unique<GroupCommitLog>(
        std::vector<LogDevice*>{&device_}, opts);
    wal_->Start();
    NewTxnManager(1);
  }

  ~RecoveryTest() override { wal_->Stop(); }

  void NewTxnManager(TxnId first) {
    tm_ = std::make_unique<TransactionManager>(&store_, &locks_, wal_.get(),
                                               &fut_, first);
  }

  std::string Val(const std::string& s) {
    std::string v = s;
    v.resize(kRecordSize, '\0');
    return v;
  }

  void CommitValue(int64_t record, const std::string& value) {
    const TxnId t = tm_->Begin();
    ASSERT_TRUE(tm_->Update(t, record, Val(value)).ok());
    ASSERT_TRUE(tm_->Commit(t).ok());
  }

  void Crash() {
    wal_->CrashStop();
    store_.SimulateCrash();
  }

  RecoveryStats Recover(bool use_fut = true) {
    RecoveryOptions opts;
    opts.use_first_update_table = use_fut;
    auto stats = RecoverStore(&store_, wal_.get(), &fut_, opts);
    MMDB_CHECK(stats.ok());
    wal_->Start();
    NewTxnManager(stats->max_txn_id + 1);
    return *stats;
  }

  std::string ReadRecord(int64_t record) {
    std::string v;
    MMDB_CHECK(store_.ReadRecord(record, &v).ok());
    return v;
  }

  SimulatedDisk disk_;
  StableMemory stable_;
  LogDevice device_;
  RecoverableStore store_;
  FirstUpdateTable fut_;
  LockManager locks_;
  std::unique_ptr<GroupCommitLog> wal_;
  std::unique_ptr<TransactionManager> tm_;
};

TEST_F(RecoveryTest, CommittedWorkSurvivesCrash) {
  CommitValue(1, "alpha");
  CommitValue(2, "beta");
  Crash();
  std::string probe;
  EXPECT_EQ(store_.ReadRecord(1, &probe).code(),
            StatusCode::kFailedPrecondition);
  const RecoveryStats stats = Recover();
  EXPECT_EQ(stats.winners, 2);
  EXPECT_EQ(stats.losers, 0);
  EXPECT_EQ(ReadRecord(1), Val("alpha"));
  EXPECT_EQ(ReadRecord(2), Val("beta"));
}

TEST_F(RecoveryTest, InFlightTransactionVanishes) {
  CommitValue(1, "keep");
  const TxnId loser = tm_->Begin();
  ASSERT_TRUE(tm_->Update(loser, 1, Val("dirty")).ok());
  ASSERT_TRUE(tm_->Update(loser, 2, Val("dirty2")).ok());
  // Force the loser's records to disk (as a checkpoint would) so recovery
  // actually sees them and must undo.
  wal_->WaitLsnDurable(1 << 28);
  Crash();
  const RecoveryStats stats = Recover();
  EXPECT_EQ(stats.losers, 1);
  EXPECT_GE(stats.undo_applied, 0);
  EXPECT_EQ(ReadRecord(1), Val("keep"));
  EXPECT_EQ(ReadRecord(2), std::string(kRecordSize, '\0'));
}

TEST_F(RecoveryTest, FuzzyCheckpointWithUncommittedDataIsUndone) {
  CommitValue(5, "committed");
  const TxnId loser = tm_->Begin();
  ASSERT_TRUE(tm_->Update(loser, 5, Val("uncommitted")).ok());
  // Fuzzy checkpoint persists the DIRTY (uncommitted) value.
  Checkpointer cp(&store_, &fut_, wal_.get());
  ASSERT_TRUE(cp.CheckpointOnce().ok());
  Crash();
  const RecoveryStats stats = Recover();
  EXPECT_GE(stats.undo_applied, 1);
  EXPECT_EQ(ReadRecord(5), Val("committed"));
}

TEST_F(RecoveryTest, AbortedTransactionStaysAborted) {
  CommitValue(3, "base");
  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 3, Val("oops")).ok());
  ASSERT_TRUE(tm_->Abort(t).ok());
  CommitValue(4, "after");
  Crash();
  const RecoveryStats stats = Recover();
  // The aborted txn replays as a winner (its compensations restore).
  EXPECT_EQ(stats.losers, 0);
  EXPECT_EQ(ReadRecord(3), Val("base"));
  EXPECT_EQ(ReadRecord(4), Val("after"));
}

TEST_F(RecoveryTest, CommitAfterAbortOfSameRecordRecoversToCommit) {
  // Abort(L) then Commit(W) on the same record: recovery must end at W's
  // value even though L's update precedes it in the log.
  CommitValue(6, "v0");
  const TxnId l = tm_->Begin();
  ASSERT_TRUE(tm_->Update(l, 6, Val("loser")).ok());
  ASSERT_TRUE(tm_->Abort(l).ok());
  CommitValue(6, "winner");
  Crash();
  Recover();
  EXPECT_EQ(ReadRecord(6), Val("winner"));
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  CommitValue(1, "one");
  CommitValue(2, "two");
  const TxnId loser = tm_->Begin();
  ASSERT_TRUE(tm_->Update(loser, 1, Val("junk")).ok());
  Crash();
  Recover();
  const std::string after_first_1 = ReadRecord(1);
  const std::string after_first_2 = ReadRecord(2);
  // Crash again immediately (nothing new committed) and recover again.
  Crash();
  Recover();
  EXPECT_EQ(ReadRecord(1), after_first_1);
  EXPECT_EQ(ReadRecord(2), after_first_2);
  EXPECT_EQ(ReadRecord(1), Val("one"));
}

TEST_F(RecoveryTest, CheckpointBoundsLogScan) {
  // §5.5: with the first-update table, recovery commences at the oldest
  // un-checkpointed update — after a full checkpoint of a long history,
  // almost nothing is scanned.
  for (int i = 0; i < 50; ++i) {
    CommitValue(i % kRecords, "v" + std::to_string(i));
  }
  Checkpointer cp(&store_, &fut_, wal_.get());
  ASSERT_TRUE(cp.CheckpointOnce().ok());
  CommitValue(7, "fresh");  // one post-checkpoint commit
  Crash();
  const RecoveryStats with_fut = Recover();
  EXPECT_EQ(ReadRecord(7), Val("fresh"));
  EXPECT_LT(with_fut.log_records_scanned, 10);
  EXPECT_LE(with_fut.redo_applied, 2);

  // Same crash WITHOUT the table: the whole log is replayed.
  Crash();
  const RecoveryStats without_fut = Recover(/*use_fut=*/false);
  EXPECT_EQ(ReadRecord(7), Val("fresh"));
  EXPECT_GT(without_fut.log_records_scanned,
            with_fut.log_records_scanned * 10);
  EXPECT_GT(without_fut.redo_applied, 40);
}

TEST_F(RecoveryTest, FirstUpdateTableKeepsOldestOfOutOfOrderUpdates) {
  // Two transactions update one page. Each appends its log record and then
  // writes the store, with no lock across the two steps, so a checkpoint
  // can reset the page's first-update entry between the appends (a < b)
  // and the writes, which then land in reverse order. The snapshot copy
  // holds neither update, so the entry must end at a: keeping b would let
  // recovery skip a's redo.
  const int64_t ra = 0;
  const int64_t rb = 1;
  const int64_t page = store_.PageOf(ra);
  ASSERT_EQ(store_.PageOf(rb), page);
  auto append_update = [&](TxnId txn, int64_t record,
                           const std::string& value) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn_id = txn;
    rec.record_id = record;
    rec.old_value = ReadRecord(record);
    rec.new_value = Val(value);
    return wal_->Append(rec);
  };
  const Lsn a = append_update(1, ra, "a");
  const Lsn b = append_update(2, rb, "b");
  ASSERT_LT(a, b);
  ASSERT_TRUE(store_.CheckpointPage(page, &fut_, wal_.get()).ok());
  ASSERT_TRUE(store_.WriteRecord(rb, Val("b"), b, &fut_).ok());
  ASSERT_TRUE(store_.WriteRecord(ra, Val("a"), a, &fut_).ok());
  EXPECT_EQ(fut_.Get(page), a);
  for (TxnId txn : {TxnId{1}, TxnId{2}}) {
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn_id = txn;
    wal_->AppendCommit(commit, {});
    wal_->WaitCommitDurable(txn);
  }
  Crash();
  Recover();
  EXPECT_EQ(ReadRecord(ra), Val("a"));
  EXPECT_EQ(ReadRecord(rb), Val("b"));
}

TEST_F(RecoveryTest, DoubleCrashRightAfterRecoveryLosesNothing) {
  // The end-of-recovery checkpoint persists redone state, so a second
  // crash before any new activity still recovers fully.
  CommitValue(9, "sticky");
  Crash();
  Recover();
  Crash();  // no activity in between
  Recover();
  EXPECT_EQ(ReadRecord(9), Val("sticky"));
}

TEST_F(RecoveryTest, NewTransactionsAfterRecoveryGetFreshIds) {
  CommitValue(1, "pre");
  Crash();
  const RecoveryStats stats = Recover();
  const TxnId t = tm_->Begin();
  EXPECT_GT(t, stats.max_txn_id);
  ASSERT_TRUE(tm_->Update(t, 2, Val("post")).ok());
  ASSERT_TRUE(tm_->Commit(t).ok());
  Crash();
  Recover();
  EXPECT_EQ(ReadRecord(1), Val("pre"));
  EXPECT_EQ(ReadRecord(2), Val("post"));
}

TEST_F(RecoveryTest, CleanRecoveryReportsNoDamage) {
  CommitValue(1, "clean");
  Crash();
  const RecoveryStats stats = Recover();
  EXPECT_EQ(stats.corrupt_records_skipped, 0);
  EXPECT_EQ(stats.snapshot_pages_quarantined, 0);
  EXPECT_EQ(stats.unreadable_log_pages, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_FALSE(stats.degraded_mode);
}

TEST_F(RecoveryTest, CorruptFirstUpdateTableFallsBackToFullScan) {
  for (int i = 0; i < 30; ++i) {
    CommitValue(i % kRecords, "v" + std::to_string(i));
  }
  Checkpointer cp(&store_, &fut_, wal_.get());
  ASSERT_TRUE(cp.CheckpointOnce().ok());
  CommitValue(7, "fresh");
  // A stable-memory bit flip lands in the table: its checksum must catch
  // it, and recovery must NOT trust the (possibly wrong) skip boundary.
  std::vector<char>* region = stable_.Region("first_update_table");
  ASSERT_NE(region, nullptr);
  (*region)[8] ^= 0x04;
  Crash();
  const RecoveryStats stats = Recover();
  EXPECT_TRUE(stats.degraded_mode);
  EXPECT_EQ(stats.start_lsn, 0);
  // Full replay: every record in the log is scanned, and the state is
  // exactly what the winners wrote.
  EXPECT_EQ(stats.log_records_scanned, stats.log_records_total);
  EXPECT_EQ(ReadRecord(7), Val("fresh"));
  EXPECT_EQ(ReadRecord(29 % kRecords), Val("v29"));
  // The table was rebuilt (reset) by recovery: the next crash epoch is
  // back on the fast path.
  CommitValue(8, "post");
  Crash();
  EXPECT_FALSE(Recover().degraded_mode);
  EXPECT_EQ(ReadRecord(8), Val("post"));
}

TEST_F(RecoveryTest, InstantRecoveryRepairsCorruptFirstUpdateTable) {
  // The same damage as above, recovered on the instant schedule: once the
  // sweep drains, the table must be as trustworthy as blocking leaves it.
  for (int i = 0; i < 30; ++i) {
    CommitValue(i % kRecords, "v" + std::to_string(i));
  }
  Checkpointer cp(&store_, &fut_, wal_.get());
  ASSERT_TRUE(cp.CheckpointOnce().ok());
  CommitValue(7, "fresh");
  std::vector<char>* region = stable_.Region("first_update_table");
  ASSERT_NE(region, nullptr);
  (*region)[8] ^= 0x04;
  Crash();
  RecoveryOptions opts;
  opts.mode = RecoveryMode::kInstant;
  auto plan = AnalyzeInstantRecovery(&store_, wal_.get(), &fut_, opts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->stats.degraded_mode);
  wal_->Start();
  NewTxnManager(plan->stats.max_txn_id + 1);
  {
    RecoveryController ctl(&store_, &fut_, wal_.get(), std::move(*plan),
                           opts);
    ctl.Start();
    ASSERT_TRUE(ctl.WaitComplete().ok());
  }
  EXPECT_TRUE(fut_.Verify());
  EXPECT_EQ(fut_.MinLsn(), kInvalidLsn);
  EXPECT_EQ(ReadRecord(7), Val("fresh"));
  // The next crash epoch is back on the fast path.
  CommitValue(8, "post");
  Crash();
  const RecoveryStats again = Recover();
  EXPECT_FALSE(again.degraded_mode);
  EXPECT_LT(again.log_records_scanned, again.log_records_total);
  EXPECT_EQ(ReadRecord(8), Val("post"));
  EXPECT_EQ(ReadRecord(29 % kRecords), Val("v29"));
}

TEST_F(RecoveryTest, QuarantinedSnapshotPageIsRebuiltFromLog) {
  // Every record on page 0 gets a committed value, then is checkpointed.
  const int per_page = store_.records_per_page();
  for (int i = 0; i < per_page; ++i) {
    CommitValue(i, "p0_" + std::to_string(i));
  }
  Checkpointer cp(&store_, &fut_, wal_.get());
  ASSERT_TRUE(cp.CheckpointOnce().ok());
  Crash();
  // Page 0 of the snapshot file dies on the shelf (bad sector).
  FaultInjector injector;
  disk_.set_fault_injector(&injector);
  injector.MarkPermanentError(FaultDevice::kDataDisk,
                              store_.snapshot_file_id(), 0);
  const RecoveryStats stats = Recover();
  EXPECT_GE(stats.snapshot_pages_quarantined, 1);
  EXPECT_TRUE(stats.degraded_mode);
  // The page's contents came back from the log, not the dead sector.
  for (int i = 0; i < per_page; ++i) {
    EXPECT_EQ(ReadRecord(i), Val("p0_" + std::to_string(i))) << i;
  }
  // The end-of-recovery checkpoint rewrote the page (sector remap), so the
  // next crash epoch loads it cleanly.
  Crash();
  const RecoveryStats again = Recover();
  EXPECT_EQ(again.snapshot_pages_quarantined, 0);
  EXPECT_FALSE(again.degraded_mode);
  EXPECT_EQ(ReadRecord(1), Val("p0_1"));
  disk_.set_fault_injector(nullptr);
}

TEST_F(RecoveryTest, CorruptLogRecordIsSkippedAndCounted) {
  CommitValue(1, "before");
  // One bit of txn B's log page flips on the way to the platter: the CRC
  // catches it at restart and the damaged record is dropped, not applied.
  FaultInjectorOptions fopts;
  fopts.seed = 3;
  fopts.bit_flip_rate = 1.0;
  FaultInjector injector(fopts);
  device_.set_fault_injector(&injector);
  CommitValue(2, "mangled");
  device_.set_fault_injector(nullptr);
  CommitValue(3, "after");
  Crash();
  const RecoveryStats stats = Recover();
  EXPECT_GE(stats.corrupt_records_skipped, 1);
  // Undamaged transactions are unaffected by the neighbor's corruption.
  EXPECT_EQ(ReadRecord(1), Val("before"));
  EXPECT_EQ(ReadRecord(3), Val("after"));
}

TEST_F(RecoveryTest, TransientSnapshotFaultsAreRetriedAndCounted) {
  CommitValue(1, "retry_me");
  Checkpointer cp(&store_, &fut_, wal_.get());
  ASSERT_TRUE(cp.CheckpointOnce().ok());
  Crash();
  FaultInjectorOptions fopts;
  fopts.seed = 17;
  fopts.transient_error_rate = 0.4;
  FaultInjector injector(fopts);
  disk_.set_fault_injector(&injector);
  const RecoveryStats stats = Recover();
  disk_.set_fault_injector(nullptr);
  // With a 40% transient rate over a multi-page snapshot some reads MUST
  // have been retried — and none of it is visible in the recovered state.
  EXPECT_GT(stats.retries, 0);
  EXPECT_EQ(stats.snapshot_pages_quarantined, 0);
  EXPECT_EQ(ReadRecord(1), Val("retry_me"));
}

TEST_F(RecoveryTest, UnflushedCommitRecordMeansNoCommitHappened) {
  // A transaction whose commit record never reached the device (we bypass
  // WaitCommitDurable by crashing from another thread's perspective) must
  // be treated as a loser. We emulate it by appending updates without a
  // commit and crashing: equivalent log state.
  CommitValue(1, "safe");
  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 1, Val("phantom")).ok());
  Crash();  // buffered bytes (if any) are dropped
  Recover();
  EXPECT_EQ(ReadRecord(1), Val("safe"));
}

}  // namespace
}  // namespace mmdb
