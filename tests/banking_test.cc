#include "txn/banking.h"

#include <gtest/gtest.h>

#include "db/database.h"

namespace mmdb {
namespace {

using WalKind = Database::TxnPlaneOptions::WalKind;

BankingOptions SmallBank() {
  BankingOptions opts;
  opts.num_accounts = 200;
  opts.num_threads = 4;
  opts.duration = std::chrono::milliseconds(150);
  return opts;
}

Database::TxnPlaneOptions FastPlane(WalKind kind) {
  Database::TxnPlaneOptions topts;
  topts.wal_kind = kind;
  topts.num_records = 200;
  topts.log_write_latency = std::chrono::microseconds(50);
  return topts;
}

TEST(BankingTest, AccountCodecRoundTrip) {
  std::string rec = EncodeAccount(123456, 72);
  EXPECT_EQ(rec.size(), 72u);
  EXPECT_EQ(DecodeAccount(rec), 123456);
  EXPECT_EQ(DecodeAccount(EncodeAccount(-5, 72)), -5);
}

TEST(BankingTest, TypicalTransactionWritesAboutFourHundredLogBytes) {
  // §5.2's arithmetic hinges on ~400 log bytes per transaction.
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane(WalKind::kSingle)).ok());
  BankingOptions opts = SmallBank();
  ASSERT_TRUE(InitAccounts(db.recoverable_store(), opts).ok());
  Random rng(1);
  constexpr int kTxns = 50;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(RunOneTransfer(db.txn_manager(), opts, &rng).ok());
  }
  const double bytes_per_txn =
      double(db.wal()->stats().logical_bytes) / kTxns;
  EXPECT_NEAR(bytes_per_txn, 400, 100);
}

TEST(BankingTest, SingleTransferMovesMoneyExactly) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane(WalKind::kSingle)).ok());
  BankingOptions opts = SmallBank();
  ASSERT_TRUE(InitAccounts(db.recoverable_store(), opts).ok());
  const int64_t before = *TotalBalance(db.recoverable_store(), opts);
  Random rng(2);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(RunOneTransfer(db.txn_manager(), opts, &rng).ok());
  }
  EXPECT_EQ(*TotalBalance(db.recoverable_store(), opts), before);
  EXPECT_EQ(db.metrics()->Get("txn.committed"), 25);
}

class BankingWalKindTest : public ::testing::TestWithParam<WalKind> {};

TEST_P(BankingWalKindTest, ConcurrentWorkloadConservesBalance) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane(GetParam())).ok());
  BankingOptions opts = SmallBank();
  ASSERT_TRUE(InitAccounts(db.recoverable_store(), opts).ok());
  const int64_t before = *TotalBalance(db.recoverable_store(), opts);
  const BankingResult result =
      RunBankingWorkload(db.txn_manager(), opts);
  EXPECT_GT(result.committed, 0);
  EXPECT_EQ(*TotalBalance(db.recoverable_store(), opts), before);
}

TEST_P(BankingWalKindTest, CrashRecoveryConservesBalanceUnderLoad) {
  Database db;
  Database::TxnPlaneOptions topts = FastPlane(GetParam());
  topts.start_checkpointer = true;  // fuzzy checkpoints during the run
  topts.checkpointer_options.sweep_interval = std::chrono::milliseconds(10);
  ASSERT_TRUE(db.EnableTransactions(topts).ok());
  BankingOptions opts = SmallBank();
  ASSERT_TRUE(InitAccounts(db.recoverable_store(), opts).ok());
  // The raw init writes are unlogged: persist them deterministically (the
  // background checkpointer would get there, but races the crash).
  ASSERT_TRUE(db.CheckpointNow().ok());
  const int64_t before = *TotalBalance(db.recoverable_store(), opts);
  RunBankingWorkload(db.txn_manager(), opts);
  ASSERT_TRUE(db.Crash().ok());
  auto stats = db.Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(*TotalBalance(db.recoverable_store(), opts), before);
  // The recovered database accepts new work.
  Random rng(3);
  ASSERT_TRUE(RunOneTransfer(db.txn_manager(), opts, &rng).ok());
  EXPECT_EQ(*TotalBalance(db.recoverable_store(), opts), before);
}

INSTANTIATE_TEST_SUITE_P(
    AllWalKinds, BankingWalKindTest,
    ::testing::Values(WalKind::kSingleNoGroupCommit, WalKind::kSingle,
                      WalKind::kPartitioned, WalKind::kStable),
    [](const auto& info) {
      switch (info.param) {
        case WalKind::kSingleNoGroupCommit:
          return "NoGroupCommit";
        case WalKind::kSingle:
          return "GroupCommit";
        case WalKind::kPartitioned:
          return "Partitioned";
        case WalKind::kStable:
          return "Stable";
      }
      return "Unknown";
    });

TEST(BankingTest, UnorderedLocksTriggerDeadlockHandling) {
  // With ordered_locks off, concurrent transfers deadlock occasionally;
  // victims abort, money is still conserved.
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane(WalKind::kSingle)).ok());
  BankingOptions opts = SmallBank();
  opts.ordered_locks = false;
  opts.num_accounts = 20;  // high contention
  opts.num_threads = 8;
  Database::TxnPlaneOptions topts;
  ASSERT_TRUE(InitAccounts(db.recoverable_store(), opts).ok());
  const int64_t before = *TotalBalance(db.recoverable_store(), opts);
  const BankingResult result = RunBankingWorkload(db.txn_manager(), opts);
  EXPECT_GT(result.committed, 0);
  EXPECT_EQ(*TotalBalance(db.recoverable_store(), opts), before);
}

TEST(BankingTest, GroupCommitBeatsPerCommitFlushing) {
  // The §5.2 ladder's first step, at test scale: with a 2 ms page write
  // and 16 clients, group commit must deliver clearly higher throughput.
  auto run = [&](WalKind kind) {
    Database db;
    Database::TxnPlaneOptions topts = FastPlane(kind);
    topts.log_write_latency = std::chrono::milliseconds(2);
    MMDB_CHECK(db.EnableTransactions(topts).ok());
    BankingOptions opts = SmallBank();
    opts.num_threads = 16;
    opts.duration = std::chrono::milliseconds(400);
    MMDB_CHECK(InitAccounts(db.recoverable_store(), opts).ok());
    return RunBankingWorkload(db.txn_manager(), opts);
  };
  const BankingResult baseline = run(WalKind::kSingleNoGroupCommit);
  const BankingResult grouped = run(WalKind::kSingle);
  EXPECT_GT(grouped.tps, baseline.tps * 1.5);
  EXPECT_GT(grouped.wal.avg_commit_group, 1.5);
}

}  // namespace
}  // namespace mmdb
