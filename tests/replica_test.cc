// Log-shipping read replica (DESIGN.md §13): committed-prefix visibility,
// lag accounting, abort handling, promotion, and the read-only server
// admission mode fronting a replica.

#include "replica/replica.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "replica/log_shipper.h"
#include "server/server.h"
#include "server/session.h"
#include "txn/banking.h"

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

/// Primary + replica twins with a shipper between them.
struct Pair {
  Pair() {
    EXPECT_TRUE(primary.EnableTransactions(PlaneOptions()).ok());
    EXPECT_TRUE(standby.EnableTransactions(PlaneOptions()).ok());
    replica = std::make_unique<Replica>(&standby);
    shipper = std::make_unique<LogShipper>(primary.wal(), replica.get());
  }
  Database primary;
  Database standby;
  std::unique_ptr<Replica> replica;
  std::unique_ptr<LogShipper> shipper;
};

TEST(Replica, ShipOnceAppliesOnlyCommittedPrefix) {
  Pair p;
  for (int64_t i = 0; i < 16; ++i) CommitValue(&p.primary, i, Val('a', i));

  // In flight on the primary: durable updates, no commit record.
  TransactionManager* tm = p.primary.txn_manager();
  const TxnId open = tm->Begin();
  ASSERT_TRUE(tm->Update(open, 3, Val('X', 3)).ok());
  // A later commit's group flush makes the open txn's updates durable too.
  CommitValue(&p.primary, 4, Val('b', 4));

  auto shipped = p.shipper->ShipOnce();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_GT(*shipped, 0);

  Lsn horizon = 0;
  auto vals = p.replica->SnapshotRead({3, 4}, &horizon);
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ((*vals)[0], Val('a', 3)) << "uncommitted update leaked";
  EXPECT_EQ((*vals)[1], Val('b', 4));
  EXPECT_GT(horizon, 0);
  EXPECT_EQ(p.standby.metrics()->Get("replica.inflight_txns"), 1);

  // Commit arrives; the buffered updates are installed.
  ASSERT_TRUE(tm->Commit(open).ok());
  ASSERT_TRUE(p.shipper->CatchUp().ok());
  vals = p.replica->SnapshotRead({3});
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ((*vals)[0], Val('X', 3));
  EXPECT_EQ(p.standby.metrics()->Get("replica.inflight_txns"), 0);
}

TEST(Replica, AbortedTransactionRollsBack) {
  Pair p;
  CommitValue(&p.primary, 0, Val('a', 0));
  TransactionManager* tm = p.primary.txn_manager();
  const TxnId t = tm->Begin();
  ASSERT_TRUE(tm->Update(t, 0, Val('B', 0)).ok());
  ASSERT_TRUE(tm->Abort(t).ok());
  ASSERT_TRUE(p.shipper->CatchUp().ok());

  auto vals = p.replica->SnapshotRead({0});
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ((*vals)[0], Val('a', 0));
}

TEST(Replica, LagShrinksMonotonicallyUnderBatchCap) {
  Database primary, standby;
  ASSERT_TRUE(primary.EnableTransactions(PlaneOptions()).ok());
  ASSERT_TRUE(standby.EnableTransactions(PlaneOptions()).ok());
  Replica replica(&standby);
  LogShipper::Options sopts;
  sopts.max_batch_records = 8;  // force multiple batches
  LogShipper shipper(primary.wal(), &replica, sopts);

  for (int64_t i = 0; i < 64; ++i) CommitValue(&primary, i % kRecords,
                                               Val('l', i));
  Lsn prev_applied = 0;
  Lsn prev_lag = -1;
  bool saw_positive_lag = false;
  for (;;) {
    auto shipped = shipper.ShipOnce();
    ASSERT_TRUE(shipped.ok());
    const Lsn applied = replica.AppliedHorizon();
    EXPECT_GE(applied, prev_applied) << "applied horizon went backwards";
    prev_applied = applied;
    const Lsn lag = replica.LagLsn();
    if (prev_lag >= 0) EXPECT_LE(lag, prev_lag) << "lag grew while draining";
    prev_lag = lag;
    if (lag > 0) saw_positive_lag = true;
    if (*shipped == 0) break;
  }
  EXPECT_TRUE(saw_positive_lag) << "batch cap never produced visible lag";
  EXPECT_EQ(replica.LagLsn(), 0);
  // Metrics surfaced in the standby's registry.
  EXPECT_EQ(standby.metrics()->Get("replica.lag_lsn"), 0);
  EXPECT_GT(standby.metrics()->Get("replica.applied_records"), 0);
}

TEST(Replica, PollingShipperTracksBankingWorkload) {
  BankingOptions bopts;
  bopts.num_accounts = kRecords;
  bopts.record_size = kRecordSize;
  bopts.num_threads = 4;
  bopts.duration = std::chrono::milliseconds(200);

  Pair p;
  ASSERT_TRUE(InitAccounts(p.primary.recoverable_store(), bopts).ok());
  // Replica starts from the same pre-transactional seed image (log
  // shipping replays transactions, not the raw InitAccounts writes).
  ASSERT_TRUE(InitAccounts(p.standby.recoverable_store(), bopts).ok());

  p.shipper->Start();
  BankingResult result = RunBankingWorkload(p.primary.txn_manager(), bopts);
  ASSERT_GT(result.committed, 0);
  ASSERT_TRUE(p.shipper->CatchUp().ok());
  p.shipper->Stop();

  // Caught up: byte-identical committed state, zero lag, money conserved.
  EXPECT_EQ(AllRecords(p.primary.recoverable_store()),
            AllRecords(p.standby.recoverable_store()));
  EXPECT_EQ(p.replica->LagLsn(), 0);
  auto total = TotalBalance(p.standby.recoverable_store(), bopts);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, bopts.num_accounts * bopts.initial_balance);
}

TEST(Replica, PromoteKeepsCommittedPrefixAndSurvivesRestart) {
  Pair p;
  for (int64_t i = 0; i < 32; ++i) CommitValue(&p.primary, i, Val('a', i));
  // An orphan in flight when the primary "dies": its commit never ships.
  TransactionManager* tm = p.primary.txn_manager();
  const TxnId orphan = tm->Begin();
  ASSERT_TRUE(tm->Update(orphan, 1, Val('O', 1)).ok());
  CommitValue(&p.primary, 2, Val('b', 2));
  ASSERT_TRUE(p.shipper->CatchUp().ok());

  const std::vector<std::string> committed_prefix =
      AllRecords(p.standby.recoverable_store());
  ASSERT_TRUE(p.replica->Promote().ok());
  // Shipping into a promoted replica is refused.
  CommitValue(&p.primary, 3, Val('c', 3));
  EXPECT_FALSE(p.shipper->CatchUp().ok());

  // The promoted image is unchanged by promotion...
  EXPECT_EQ(committed_prefix, AllRecords(p.standby.recoverable_store()));
  // ...durable (promote checkpointed it under the standby's own plane)...
  ASSERT_TRUE(p.standby.Crash().ok());
  ASSERT_TRUE(p.standby.Recover().ok());
  EXPECT_EQ(committed_prefix, AllRecords(p.standby.recoverable_store()));
  // ...and writable as a primary in its own right.
  CommitValue(&p.standby, 1, Val('n', 1));
  std::string v;
  ASSERT_TRUE(p.standby.recoverable_store()->ReadRecord(1, &v).ok());
  EXPECT_EQ(v, Val('n', 1));

  ASSERT_TRUE(tm->Abort(orphan).ok());
}

TEST(Replica, ReadOnlyServerRejectsWritesServesReads) {
  Pair p;
  for (int64_t i = 0; i < 8; ++i) CommitValue(&p.primary, i, Val('a', i));
  ASSERT_TRUE(p.shipper->CatchUp().ok());

  Server::Options sopts;
  sopts.read_only = true;
  Server server(&p.standby, sopts);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  auto read = (*session)->ReadRecord(5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Val('a', 5));

  EXPECT_EQ((*session)->UpdateRecord(5, Val('w', 5)).code(),
            StatusCode::kFailedPrecondition);
  auto sql = (*session)->ExecuteSql("CREATE TABLE t (x INT64)");
  EXPECT_FALSE(sql.ok());
  EXPECT_EQ(sql.status().code(), StatusCode::kFailedPrecondition);

  // The record is untouched.
  read = (*session)->ReadRecord(5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Val('a', 5));
  server.Shutdown();
}

}  // namespace
}  // namespace mmdb
