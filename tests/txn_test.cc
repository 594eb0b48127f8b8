#include "txn/transaction_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "txn/checkpoint.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

/// A full §5 stack on a tiny store with a zero-latency log device.
class TxnTest : public ::testing::Test {
 protected:
  TxnTest()
      : disk_(256),
        stable_(1 << 20),
        device_(256, microseconds(0)),
        store_(&disk_, /*num_records=*/64, /*record_size=*/16, 256),
        fut_(&stable_, store_.num_pages()) {
    GroupCommitLogOptions opts;
    opts.flush_timeout = microseconds(200);
    wal_ = std::make_unique<GroupCommitLog>(
        std::vector<LogDevice*>{&device_}, opts);
    wal_->Start();
    tm_ = std::make_unique<TransactionManager>(&store_, &locks_, wal_.get(),
                                               &fut_);
  }

  ~TxnTest() override { wal_->Stop(); }

  std::string Val(const std::string& s) {
    std::string v = s;
    v.resize(16, '\0');
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

TEST_F(TxnTest, CommitAppliesUpdates) {
  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 3, Val("hello")).ok());
  ASSERT_TRUE(tm_->Commit(t).ok());
  std::string v;
  ASSERT_TRUE(store_.ReadRecord(3, &v).ok());
  EXPECT_EQ(v, Val("hello"));
  EXPECT_EQ(tm_->metrics()->Get("txn.committed"), 1);
}

TEST_F(TxnTest, AbortRestoresOldValues) {
  const TxnId setup = tm_->Begin();
  ASSERT_TRUE(tm_->Update(setup, 3, Val("original")).ok());
  ASSERT_TRUE(tm_->Commit(setup).ok());

  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 3, Val("scribble")).ok());
  ASSERT_TRUE(tm_->Update(t, 4, Val("more")).ok());
  ASSERT_TRUE(tm_->Abort(t).ok());
  std::string v;
  ASSERT_TRUE(store_.ReadRecord(3, &v).ok());
  EXPECT_EQ(v, Val("original"));
  ASSERT_TRUE(store_.ReadRecord(4, &v).ok());
  EXPECT_EQ(v, std::string(16, '\0'));
  EXPECT_EQ(tm_->metrics()->Get("txn.aborted"), 1);
}

TEST_F(TxnTest, ReadSeesOwnWritesViaStore) {
  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 0, Val("mine")).ok());
  auto v = tm_->Read(t, 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Val("mine"));
  ASSERT_TRUE(tm_->Commit(t).ok());
}

TEST_F(TxnTest, OperationsOnUnknownTxnFail) {
  EXPECT_EQ(tm_->Update(999, 0, Val("x")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tm_->Commit(999).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tm_->Abort(999).code(), StatusCode::kFailedPrecondition);
}

TEST_F(TxnTest, CommitWritesCommitRecordBeforeNotifying) {
  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 1, Val("x")).ok());
  ASSERT_TRUE(tm_->Commit(t).ok());
  // After Commit returns, the commit record must be durable on the device.
  auto recs = wal_->ReadAllForRecovery();
  bool commit_on_disk = false;
  for (const LogRecord& rec : recs) {
    if (rec.txn_id == t && rec.type == LogRecordType::kCommit) {
      commit_on_disk = true;
    }
  }
  EXPECT_TRUE(commit_on_disk);
}

TEST_F(TxnTest, DependentCommitOrderedAfterItsDependency) {
  // T1 updates record 5 and pre-commits (inside Commit); T2 then updates
  // the same record. T2's commit carries a dependency on T1 and must land
  // at a higher LSN.
  std::atomic<Lsn> t1_commit_lsn{-1}, t2_commit_lsn{-1};
  const TxnId t1 = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t1, 5, Val("first")).ok());
  std::thread t1_commit([&]() { ASSERT_TRUE(tm_->Commit(t1).ok()); });
  t1_commit.join();
  const TxnId t2 = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t2, 5, Val("second")).ok());
  ASSERT_TRUE(tm_->Commit(t2).ok());
  auto recs = wal_->ReadAllForRecovery();
  for (const LogRecord& rec : recs) {
    if (rec.type == LogRecordType::kCommit && rec.txn_id == t1) {
      t1_commit_lsn = rec.lsn;
    }
    if (rec.type == LogRecordType::kCommit && rec.txn_id == t2) {
      t2_commit_lsn = rec.lsn;
    }
  }
  ASSERT_GE(t1_commit_lsn.load(), 0);
  ASSERT_GE(t2_commit_lsn.load(), 0);
  EXPECT_LT(t1_commit_lsn.load(), t2_commit_lsn.load());
  std::string v;
  ASSERT_TRUE(store_.ReadRecord(5, &v).ok());
  EXPECT_EQ(v, Val("second"));
}

TEST_F(TxnTest, ConflictingWritersSerialize) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int64_t> committed{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&]() {
      for (int r = 0; r < kRounds; ++r) {
        const TxnId t = tm_->Begin();
        auto v = tm_->Read(t, 7);
        if (!v.ok()) {
          (void)tm_->Abort(t);
          continue;
        }
        int64_t counter = 0;
        std::memcpy(&counter, v->data(), sizeof(counter));
        ++counter;
        std::string nv(16, '\0');
        std::memcpy(nv.data(), &counter, sizeof(counter));
        if (!tm_->Update(t, 7, nv).ok()) {
          (void)tm_->Abort(t);
          continue;
        }
        if (tm_->Commit(t).ok()) ++committed;
      }
    });
  }
  for (auto& t : threads) t.join();
  std::string v;
  ASSERT_TRUE(store_.ReadRecord(7, &v).ok());
  int64_t counter = 0;
  std::memcpy(&counter, v.data(), sizeof(counter));
  EXPECT_EQ(counter, committed.load());
  EXPECT_GT(committed.load(), 0);
}

TEST_F(TxnTest, FirstUpdateTableTracksFirstLsnUntilCheckpoint) {
  EXPECT_EQ(fut_.MinLsn(), kInvalidLsn);
  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 0, Val("a")).ok());
  const Lsn first = fut_.Get(store_.PageOf(0));
  EXPECT_NE(first, kInvalidLsn);
  ASSERT_TRUE(tm_->Update(t, 1, Val("b")).ok());  // same page
  EXPECT_EQ(fut_.Get(store_.PageOf(1)), first);   // keeps the FIRST lsn
  ASSERT_TRUE(tm_->Commit(t).ok());

  Checkpointer cp(&store_, &fut_, wal_.get());
  auto written = cp.CheckpointOnce();
  ASSERT_TRUE(written.ok());
  EXPECT_GE(*written, 1);
  EXPECT_EQ(fut_.Get(store_.PageOf(0)), kInvalidLsn);
  EXPECT_EQ(store_.NumDirtyPages(), 0);
}

TEST_F(TxnTest, CheckpointEnforcesWalRule) {
  // A page updated by an uncommitted txn can only reach the snapshot once
  // the update's log record is durable; CheckpointPage with the wal forces
  // the flush.
  const TxnId t = tm_->Begin();
  ASSERT_TRUE(tm_->Update(t, 0, Val("dirty")).ok());
  const int64_t pages_before = device_.num_pages();
  Checkpointer cp(&store_, &fut_, wal_.get());
  ASSERT_TRUE(cp.CheckpointOnce().ok());
  // The WAL fence forced the update record to disk.
  EXPECT_GT(device_.num_pages(), pages_before);
  auto recs = wal_->ReadAllForRecovery();
  bool update_on_disk = false;
  for (const LogRecord& rec : recs) {
    if (rec.txn_id == t && rec.type == LogRecordType::kUpdate) {
      update_on_disk = true;
    }
  }
  EXPECT_TRUE(update_on_disk);
  ASSERT_TRUE(tm_->Abort(t).ok());
}

// A hot backup starts its log window at the oldest active transaction's
// begin record. A transaction inside Commit must still count: its commit
// record may land after the backup's end fence, and a window that starts
// after its first update would then restore only part of it.
TEST(TxnOldestActiveTest, CommittingTransactionStillBoundsOldestBegin) {
  SimulatedDisk disk(256);
  StableMemory stable(1 << 20);
  LogDevice device(256, microseconds(0));
  RecoverableStore store(&disk, /*num_records=*/64, /*record_size=*/16, 256);
  FirstUpdateTable fut(&stable, store.num_pages());
  LockManager locks;
  // The flusher is not started yet, so the commit cannot become durable
  // and Commit stays in its durability wait until the test starts it.
  GroupCommitLog wal({&device}, GroupCommitLogOptions{});
  TransactionManager tm(&store, &locks, &wal, &fut);

  const TxnId t = tm.Begin();
  const Lsn begin = tm.OldestActiveBeginLsn();
  ASSERT_NE(begin, kInvalidLsn);
  ASSERT_TRUE(tm.Update(t, 3, std::string(16, 'x')).ok());
  const int64_t logged = wal.stats().logical_bytes;
  std::thread committer([&] { EXPECT_TRUE(tm.Commit(t).ok()); });
  while (wal.stats().logical_bytes == logged) std::this_thread::yield();
  EXPECT_EQ(tm.OldestActiveBeginLsn(), begin);

  wal.Start();
  committer.join();
  EXPECT_EQ(tm.OldestActiveBeginLsn(), kInvalidLsn);
  wal.Stop();
}

}  // namespace
}  // namespace mmdb
