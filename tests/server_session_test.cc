#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "server/session.h"
#include "server/sql_scheduler.h"

namespace mmdb {
namespace {

using SqlResult = Database::SqlResult;

std::string Ddl() {
  return "CREATE TABLE acct (id INT64, owner CHAR(12), balance DOUBLE)";
}

void Seed(Database* db, int rows) {
  ASSERT_TRUE(db->ExecuteSql(Ddl()).ok());
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(db
                    ->ExecuteSql("INSERT INTO acct VALUES (" +
                                 std::to_string(i) + ", 'owner" +
                                 std::to_string(i % 7) + "', " +
                                 std::to_string(100.0 + i) + ")")
                    .ok());
  }
}

/// The table's rows rendered and sorted — an order-independent fingerprint.
std::vector<std::string> TableFingerprint(Database* db,
                                          const std::string& table) {
  auto rel = db->GetTable(table);
  std::vector<std::string> rows;
  if (!rel.ok()) return rows;
  for (const Row& row : (*rel)->rows()) rows.push_back(RowToString(row));
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(SessionTest, BasicSqlRoundTrip) {
  Database db;
  Seed(&db, 20);
  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  auto rows = (*session)->ExecuteSql("SELECT id, balance FROM acct");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->relation.num_tuples(), 20);

  auto update =
      (*session)->ExecuteSql("UPDATE acct SET balance = 0.0 WHERE id < 5");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->rows_affected, 5);

  auto zeroed = (*session)->ExecuteSql(
      "SELECT id FROM acct WHERE balance < 1.0");
  ASSERT_TRUE(zeroed.ok());
  EXPECT_EQ(zeroed->relation.num_tuples(), 5);
  ASSERT_TRUE(server.CloseSession((*session)->id()).ok());
}

TEST(SessionTest, TracePlansRunsExplainAnalyze) {
  Database db;
  Seed(&db, 10);
  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  (*session)->set_trace_plans(true);
  auto traced = (*session)->ExecuteSql("SELECT id FROM acct WHERE id = 3");
  ASSERT_TRUE(traced.ok());
  EXPECT_TRUE(traced->analyzed);
  EXPECT_NE(traced->plan_text.find("actual rows"), std::string::npos);
  EXPECT_EQ(traced->relation.num_tuples(), 1);
}

TEST(SessionTest, BatchRunsPastErrors) {
  Database db;
  Seed(&db, 5);
  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  auto results = (*session)->ExecuteBatch(
      "INSERT INTO acct VALUES (100, 'batch; guy', 1.0); "
      "SELECT nonsense FROM nowhere; "
      "SELECT id FROM acct WHERE id = 100;");
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());  // the error does not abort the batch
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(results[2]->relation.num_tuples(), 1);
}

TEST(SessionTest, SplitStatementsRespectsStringLiterals) {
  auto stmts = Session::SplitStatements(
      "INSERT INTO t VALUES (1, 'a;b');; SELECT x FROM t;   ");
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_NE(stmts[0].find("'a;b'"), std::string::npos);
  EXPECT_EQ(stmts[1].find("INSERT"), std::string::npos);
}

TEST(SessionTest, CloseSessionWaitsForQueuedStatements) {
  Database db;
  Seed(&db, 5);
  Server::Options opts;
  opts.scheduler.num_workers = 1;
  opts.scheduler.max_inflight_per_session = 8;
  Server server(&db, opts);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // Hold the single worker so the second statement stays queued while the
  // session is being closed: CloseSession must wait for both instead of
  // freeing the session under them.
  std::atomic<bool> release{false};
  server.scheduler()->set_before_execute_hook([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto f1 = (*session)->SubmitSql("SELECT id FROM acct");  // executing
  auto f2 = (*session)->SubmitSql("SELECT id FROM acct");  // queued
  const int64_t sid = (*session)->id();
  std::thread closer(
      [&server, sid] { EXPECT_TRUE(server.CloseSession(sid).ok()); });
  // The closer must block while statements are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.active_sessions(), 0);  // already out of the table...
  release.store(true);
  closer.join();  // ...but only destroyed once both statements finished
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  server.scheduler()->set_before_execute_hook(nullptr);
}

TEST(AdmissionTest, QueueFullRejectsWithOverloaded) {
  Database db;
  Seed(&db, 5);
  Server::Options opts;
  opts.scheduler.num_workers = 1;
  opts.scheduler.max_queue_depth = 2;
  opts.scheduler.max_inflight_per_session = 8;
  Server server(&db, opts);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // Hold the single worker so admitted statements pile up deterministically.
  std::atomic<bool> release{false};
  server.scheduler()->set_before_execute_hook([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  auto f1 = (*session)->SubmitSql("SELECT id FROM acct");  // executing
  auto f2 = (*session)->SubmitSql("SELECT id FROM acct");  // queued
  auto f3 = (*session)->SubmitSql("SELECT id FROM acct");  // over the bound
  auto r3 = f3.get();
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kOverloaded);

  release.store(true);
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  EXPECT_GE(db.metrics()->Get("server.admission.rejected_queue_full"), 1);
  server.scheduler()->set_before_execute_hook(nullptr);
}

TEST(AdmissionTest, PerSessionInFlightCap) {
  Database db;
  Seed(&db, 5);
  Server::Options opts;
  opts.scheduler.num_workers = 1;
  opts.scheduler.max_queue_depth = 64;
  opts.scheduler.max_inflight_per_session = 1;
  Server server(&db, opts);
  auto hog = server.OpenSession();
  auto other = server.OpenSession();
  ASSERT_TRUE(hog.ok());
  ASSERT_TRUE(other.ok());

  std::atomic<bool> release{false};
  server.scheduler()->set_before_execute_hook([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto f1 = (*hog)->SubmitSql("SELECT id FROM acct");
  auto f2 = (*hog)->SubmitSql("SELECT id FROM acct");  // cap: rejected
  auto f3 = (*other)->SubmitSql("SELECT id FROM acct");  // other session: ok
  auto r2 = f2.get();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kOverloaded);
  release.store(true);
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f3.get().ok());
  EXPECT_GE(db.metrics()->Get("server.admission.rejected_session_cap"), 1);
  server.scheduler()->set_before_execute_hook(nullptr);
}

TEST(AdmissionTest, SessionTableFullAndShutdownRejections) {
  Database db;
  Seed(&db, 3);
  Server::Options opts;
  opts.max_sessions = 1;
  Server server(&db, opts);
  auto s1 = server.OpenSession();
  ASSERT_TRUE(s1.ok());
  auto s2 = server.OpenSession();
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(s2.status().code(), StatusCode::kOverloaded);

  server.Shutdown();
  auto s3 = server.OpenSession();
  ASSERT_FALSE(s3.ok());
  EXPECT_EQ(s3.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.active_sessions(), 0);
}

TEST(ConcurrencyTest, WriterTxnBlocksSerializableReaderUntilCommit) {
  Database db;
  Seed(&db, 10);
  Server server(&db);
  auto writer = server.OpenSession();
  auto reader = server.OpenSession();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());

  ASSERT_TRUE((*writer)->Begin().ok());
  ASSERT_TRUE(
      (*writer)->ExecuteSql("UPDATE acct SET balance = 1.0").ok());

  // The serializable reader must not observe the mid-transaction state: its
  // S-lock waits for the writer's X lock.
  auto pending = (*reader)->SubmitSql(
      "SELECT id FROM acct WHERE balance < 50.0");
  EXPECT_EQ(pending.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout);

  ASSERT_TRUE((*writer)->Commit().ok());
  auto rows = pending.get();
  ASSERT_TRUE(rows.ok());
  // Serializable outcome: the read ran entirely after the committed
  // transaction, so every row has the new balance.
  EXPECT_EQ(rows->relation.num_tuples(), 10);
}

TEST(ConcurrencyTest, DeadlockDetectedNotHung) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t1 (a INT64)").ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t2 (a INT64)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t1 VALUES (1)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t2 VALUES (1)").ok());
  Server server(&db);
  auto sa = server.OpenSession();
  auto sb = server.OpenSession();
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  ASSERT_TRUE((*sa)->Begin().ok());
  ASSERT_TRUE((*sb)->Begin().ok());
  ASSERT_TRUE((*sa)->ExecuteSql("UPDATE t1 SET a = 2").ok());
  ASSERT_TRUE((*sb)->ExecuteSql("UPDATE t2 SET a = 2").ok());

  auto a_blocked = (*sa)->SubmitSql("UPDATE t2 SET a = 3");  // waits on sb
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto b_cross = (*sb)->ExecuteSql("UPDATE t1 SET a = 3");  // closes a cycle

  // One of the two must be the deadlock victim; neither may hang.
  auto a_result = a_blocked.get();
  const bool a_victim =
      !a_result.ok() && a_result.status().code() == StatusCode::kDeadlock;
  const bool b_victim =
      !b_cross.ok() && b_cross.status().code() == StatusCode::kDeadlock;
  EXPECT_TRUE(a_victim || b_victim);

  if ((*sa)->in_txn()) {
    EXPECT_TRUE((*sa)->Commit().ok());
  }
  if ((*sb)->in_txn()) {
    EXPECT_TRUE((*sb)->Commit().ok());
  }
}

TEST(ConcurrencyTest, SnapshotReadersNeverBlockRecordWriters) {
  Database db;
  Database::TxnPlaneOptions txn;
  txn.enable_versioning = true;
  txn.num_records = 64;
  txn.log_write_latency = std::chrono::microseconds(100);
  ASSERT_TRUE(db.EnableTransactions(txn).ok());

  Server server(&db);
  SessionOptions snap;
  snap.isolation = IsolationLevel::kSnapshot;
  auto writer = server.OpenSession();
  auto reader = server.OpenSession(snap);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());

  auto before = (*reader)->ReadRecord(7);
  ASSERT_TRUE(before.ok());

  // Writer holds record 7's X lock inside an open transaction...
  ASSERT_TRUE((*writer)->Begin().ok());
  ASSERT_TRUE((*writer)->UpdateRecord(7, "dirty-uncommitted").ok());

  // ...and the snapshot reader still completes instantly with the
  // committed (pre-update) value: no lock taken, no blocking either way.
  const auto t0 = std::chrono::steady_clock::now();
  auto during = (*reader)->ReadRecord(7);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(*during, *before);
  EXPECT_LT(elapsed, std::chrono::seconds(2));

  ASSERT_TRUE((*writer)->Commit().ok());
  auto after = (*reader)->ReadRecord(7);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->substr(0, 17), "dirty-uncommitted");
}

TEST(ConcurrencyTest, RowLocksLetPointUpdatesOnDistinctKeysRun) {
  Database db;
  Seed(&db, 10);
  Server server(&db);  // row_locks defaults on
  auto sa = server.OpenSession();
  auto sb = server.OpenSession();
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  ASSERT_TRUE((*sa)->Begin().ok());
  ASSERT_TRUE((*sb)->Begin().ok());
  ASSERT_TRUE(
      (*sa)->ExecuteSql("UPDATE acct SET balance = 1.0 WHERE id = 3").ok());

  // Distinct key: table IX locks are compatible, row locks disjoint — the
  // second writer runs to completion while the first's txn stays open.
  auto other = (*sb)->SubmitSql("UPDATE acct SET balance = 2.0 WHERE id = 4");
  ASSERT_EQ(other.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(other.get().ok());

  // Same key: the row X lock serializes them until the holder commits.
  auto same = (*sb)->SubmitSql("UPDATE acct SET balance = 5.0 WHERE id = 3");
  EXPECT_EQ(same.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout);
  ASSERT_TRUE((*sa)->Commit().ok());
  EXPECT_TRUE(same.get().ok());
  ASSERT_TRUE((*sb)->Commit().ok());

  ASSERT_TRUE(server.CloseSession((*sa)->id()).ok());
  ASSERT_TRUE(server.CloseSession((*sb)->id()).ok());
  EXPECT_GE(db.metrics()->Get("session.row_lock_statements"), 3);

  // The writes all landed.
  auto check = db.ExecuteSql("SELECT balance FROM acct WHERE id = 3");
  ASSERT_TRUE(check.ok());
}

TEST(ConcurrencyTest, SnapshotWriteConflictRollsBackAndSurfaces) {
  Database db;
  Database::TxnPlaneOptions txn;
  txn.enable_versioning = true;
  txn.num_records = 64;
  txn.log_write_latency = std::chrono::microseconds(0);
  ASSERT_TRUE(db.EnableTransactions(txn).ok());

  Server server(&db);
  SessionOptions snap;
  snap.isolation = IsolationLevel::kSnapshot;
  auto sa = server.OpenSession(snap);
  auto sb = server.OpenSession(snap);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  ASSERT_TRUE((*sa)->Begin().ok());
  ASSERT_TRUE((*sb)->Begin().ok());
  ASSERT_TRUE((*sa)->UpdateRecord(5, "first-writer").ok());

  // First writer wins: the competing snapshot writer gets an immediate
  // kConflict (no blocking) and its transaction is rolled back.
  Status lost = (*sb)->UpdateRecord(5, "second-writer");
  EXPECT_EQ(lost.code(), StatusCode::kConflict);
  EXPECT_FALSE((*sb)->in_txn());

  ASSERT_TRUE((*sa)->Commit().ok());
  auto value = (*sa)->ReadRecord(5);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->substr(0, 12), "first-writer");

  // The loser retries on a fresh transaction (fresh snapshot) and wins.
  ASSERT_TRUE((*sb)->Begin().ok());
  ASSERT_TRUE((*sb)->UpdateRecord(5, "retry-writer").ok());
  ASSERT_TRUE((*sb)->Commit().ok());

  ASSERT_TRUE(server.CloseSession((*sa)->id()).ok());
  ASSERT_TRUE(server.CloseSession((*sb)->id()).ok());
  const std::string json = db.MetricsJson();
  EXPECT_GE(db.metrics()->Get("session.conflicts"), 1);
  EXPECT_GE(db.metrics()->Get("txn.conflicts"), 1);
  EXPECT_GE(db.metrics()->Get("mvcc.conflicts"), 1);
  EXPECT_NE(json.find("mvcc.commits"), std::string::npos);
}

TEST(DifferentialTest, PointUpdatesSerialAndConcurrentAgree) {
  // Each id is point-updated exactly once, so the final table state is
  // order-independent: 1 session and 8 row-locked concurrent sessions must
  // produce identical fingerprints.
  const int kRows = 64;
  std::vector<std::string> updates;
  for (int i = 0; i < kRows; ++i) {
    updates.push_back("UPDATE acct SET balance = " +
                      std::to_string(1000.0 + i) + " WHERE id = " +
                      std::to_string(i));
  }

  Database serial_db;
  Seed(&serial_db, kRows);
  std::vector<std::string> serial_rows;
  {
    Server server(&serial_db);
    auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    for (const auto& sql : updates) {
      ASSERT_TRUE((*session)->ExecuteSql(sql).ok());
    }
    serial_rows = TableFingerprint(&serial_db, "acct");
  }

  Database conc_db;
  Seed(&conc_db, kRows);
  {
    Server::Options opts;
    opts.scheduler.num_workers = 8;
    opts.scheduler.max_queue_depth = 256;
    Server server(&conc_db, opts);
    const int kSessions = 8;
    std::vector<Session*> sessions;
    for (int s = 0; s < kSessions; ++s) {
      auto session = server.OpenSession();
      ASSERT_TRUE(session.ok());
      sessions.push_back(*session);
    }
    std::vector<std::thread> clients;
    for (int s = 0; s < kSessions; ++s) {
      clients.emplace_back([&, s] {
        for (size_t i = static_cast<size_t>(s); i < updates.size();
             i += kSessions) {
          auto result =
              sessions[static_cast<size_t>(s)]->ExecuteSql(updates[i]);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
        }
      });
    }
    for (auto& t : clients) t.join();
    // The fast path actually engaged: every statement was row-locked.
    server.Shutdown();
    EXPECT_GE(conc_db.metrics()->Get("session.row_lock_statements"), kRows);
  }
  EXPECT_EQ(TableFingerprint(&conc_db, "acct"), serial_rows);
  EXPECT_EQ(serial_rows.size(), static_cast<size_t>(kRows));
}

TEST(DifferentialTest, SerialAndConcurrentBatchesAgree) {
  // The same statement batch through 1 session and through 8 concurrent
  // sessions must leave identical table contents, and the read phase must
  // record identical executor metrics totals (merging statement shards
  // commutes, DESIGN.md §9/§10).
  const int kRows = 120;
  std::vector<std::string> inserts;
  for (int i = 0; i < kRows; ++i) {
    inserts.push_back("INSERT INTO acct VALUES (" + std::to_string(i) +
                      ", 'o" + std::to_string(i % 5) + "', " +
                      std::to_string(10.0 * i) + ")");
  }
  std::vector<std::string> selects;
  for (int i = 0; i < 24; ++i) {
    selects.push_back("SELECT id, balance FROM acct WHERE owner = 'o" +
                      std::to_string(i % 5) + "'");
  }

  auto filter_total = [](Database* db) {
    return db->metrics()->Get("exec.filter.rows_in") +
           db->metrics()->Get("exec.filter.rows_out");
  };

  // Serial run.
  Database serial_db;
  ASSERT_TRUE(serial_db.ExecuteSql(Ddl()).ok());
  int64_t serial_filter = 0;
  std::vector<std::string> serial_rows;
  {
    Server server(&serial_db);
    auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    for (const auto& sql : inserts) ASSERT_TRUE((*session)->ExecuteSql(sql).ok());
    const int64_t before = filter_total(&serial_db);
    for (const auto& sql : selects) ASSERT_TRUE((*session)->ExecuteSql(sql).ok());
    serial_filter = filter_total(&serial_db) - before;
    serial_rows = TableFingerprint(&serial_db, "acct");
  }

  // Concurrent run: 8 sessions, each driven by its own client thread.
  Database conc_db;
  ASSERT_TRUE(conc_db.ExecuteSql(Ddl()).ok());
  {
    Server::Options opts;
    opts.scheduler.num_workers = 8;
    opts.scheduler.max_queue_depth = 256;
    Server server(&conc_db, opts);
    const int kSessions = 8;
    std::vector<Session*> sessions;
    for (int s = 0; s < kSessions; ++s) {
      auto session = server.OpenSession();
      ASSERT_TRUE(session.ok());
      sessions.push_back(*session);
    }
    auto run_slice = [&](const std::vector<std::string>& stmts) {
      std::vector<std::thread> clients;
      for (int s = 0; s < kSessions; ++s) {
        clients.emplace_back([&, s] {
          for (size_t i = static_cast<size_t>(s); i < stmts.size();
               i += kSessions) {
            auto result = sessions[static_cast<size_t>(s)]->ExecuteSql(
                stmts[i]);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
          }
        });
      }
      for (auto& t : clients) t.join();
    };
    run_slice(inserts);  // barrier between phases: joins above
    const int64_t before = filter_total(&conc_db);
    run_slice(selects);
    const int64_t conc_filter = filter_total(&conc_db) - before;
    EXPECT_EQ(conc_filter, serial_filter);
  }
  EXPECT_EQ(TableFingerprint(&conc_db, "acct"), serial_rows);
  EXPECT_EQ(serial_rows.size(), static_cast<size_t>(kRows));
}

TEST(ShutdownTest, DrainFinishesInFlightBeforeStoppingServices) {
  Database db;
  Seed(&db, 50);
  Database::TxnPlaneOptions txn;
  txn.start_checkpointer = true;
  txn.log_write_latency = std::chrono::microseconds(100);
  ASSERT_TRUE(db.EnableTransactions(txn).ok());

  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  std::vector<std::future<StatusOr<SqlResult>>> pending;
  for (int i = 0; i < 4; ++i) {
    pending.push_back((*session)->SubmitSql("SELECT id FROM acct"));
  }
  server.Shutdown();
  // Every admitted statement completed (drain ran before service stop).
  for (auto& f : pending) {
    auto result = f.get();
    if (result.ok()) {
      EXPECT_EQ(result->relation.num_tuples(), 50);
    }
  }
  // Post-shutdown submissions are refused, not queued.
  auto late = (*session)->SubmitSql("SELECT id FROM acct");
  EXPECT_EQ(late.get().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.scheduler()->admitted_in_flight(), 0);
}

// A session takes its locks from the parsed statement (DESIGN.md §10), so
// the footprint is what the statement touches however it is spelled.

/// Waits until `pending` finishes or the server's table-lock waits pass
/// `waits_before`, whichever comes first; true when it finished first.
bool FinishedWithoutWaiting(Server* server,
                            std::future<StatusOr<SqlResult>>* pending,
                            int64_t waits_before) {
  while (server->table_locks()->stats().waits == waits_before) {
    if (pending->wait_for(std::chrono::milliseconds(1)) ==
        std::future_status::ready) {
      return true;
    }
  }
  return false;
}

double Balance(Session* session, int id) {
  auto read = session->ExecuteSql("SELECT balance FROM acct WHERE id = " +
                                  std::to_string(id));
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  if (!read.ok() || read->relation.num_tuples() != 1) return -1;
  return std::get<double>(read->relation.rows()[0][0]);
}

TEST(SessionLockFootprintTest, UppercaseTableSharesTheLockId) {
  Database db;
  Seed(&db, 10);
  Server server(&db);
  auto a = server.OpenSession();
  auto b = server.OpenSession();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  ASSERT_TRUE((*a)->Begin().ok());
  EXPECT_EQ(Balance(*a, 3), 103.0);
  const int64_t waits = server.table_locks()->stats().waits;
  auto write =
      (*b)->SubmitSql("UPDATE ACCT SET balance = 999 WHERE id = 3");
  // ACCT is acct: the writer waits for the reader's S lock...
  ASSERT_FALSE(FinishedWithoutWaiting(&server, &write, waits));
  // ...so the reader's transaction reads the same value twice.
  EXPECT_EQ(Balance(*a, 3), 103.0);
  ASSERT_TRUE((*a)->Commit().ok());
  auto written = write.get();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->rows_affected, 1);
  EXPECT_EQ(Balance(*a, 3), 999.0);
}

TEST(SessionLockFootprintTest, KeyReassignmentTakesTheTableLock) {
  Database db;
  Seed(&db, 10);
  Server server(&db);
  auto a = server.OpenSession();
  auto b = server.OpenSession();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  ASSERT_TRUE((*a)->Begin().ok());
  ASSERT_TRUE(
      (*a)->ExecuteSql("UPDATE acct SET ID = 7 WHERE id = 3").ok());
  EXPECT_EQ((*a)->metrics()->Get("session.row_lock_statements"), 0);
  // A point update on another key takes table IX, which waits for the
  // key-moving statement's table X lock.
  const int64_t waits = server.table_locks()->stats().waits;
  auto other =
      (*b)->SubmitSql("UPDATE acct SET balance = 1.0 WHERE id = 5");
  ASSERT_FALSE(FinishedWithoutWaiting(&server, &other, waits));
  ASSERT_TRUE((*a)->Commit().ok());
  EXPECT_TRUE(other.get().ok());
  EXPECT_EQ((*b)->metrics()->Get("session.row_lock_statements"), 1);
}

TEST(SessionLockFootprintTest, SpellingsOfAPointUpdateTakeTheRowPath) {
  Database db;
  Seed(&db, 10);
  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  const char* spellings[] = {
      "UPDATE acct SET balance = 1.0 WHERE id = 3",
      "UPDATE acct SET balance = 2.0 WHERE ID = 3",
      "UPDATE acct SET balance = 3.0 WHERE acct.id = 3",
      "UPDATE acct SET balance = 4.0 WHERE id = 3;",
      "update Acct set BALANCE = 5.0 where Id = 03",
  };
  int64_t expected = 0;
  for (const char* sql : spellings) {
    auto result = (*session)->ExecuteSql(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_EQ(result->rows_affected, 1) << sql;
    EXPECT_EQ((*session)->metrics()->Get("session.row_lock_statements"),
              ++expected)
        << sql;
  }
  EXPECT_EQ(Balance(*session, 3), 5.0);
}

TEST(SessionLockFootprintTest, ParseErrorTakesNoLock) {
  Database db;
  Seed(&db, 10);
  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  MetricsRegistry* metrics = (*session)->metrics();

  ASSERT_TRUE((*session)->Begin().ok());
  const int64_t acquisitions = server.table_locks()->stats().acquisitions;
  for (const char* sql : {"SELECT nonsense FROM acct",
                          "UPDATE acct SET balance = 'x' WHERE id = 3",
                          "INSERT INTO acct VALUES (1, 'o', )"}) {
    auto result = (*session)->ExecuteSql(sql);
    EXPECT_FALSE(result.ok()) << sql;
  }
  EXPECT_EQ(server.table_locks()->stats().acquisitions, acquisitions);
  EXPECT_EQ(server.table_locks()->NumLocks(), 0);
  EXPECT_EQ(metrics->Get("session.statements"), 3);
  EXPECT_EQ(metrics->Get("session.errors"), 3);
  ASSERT_TRUE((*session)->Commit().ok());
}

TEST(MetricsTest, ServerFamiliesAppearInDatabaseJson) {
  Database db;
  Seed(&db, 5);
  Server server(&db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->ExecuteSql("SELECT id FROM acct").ok());
  ASSERT_TRUE(server.CloseSession((*session)->id()).ok());
  const std::string json = db.MetricsJson();
  EXPECT_NE(json.find("server.sessions.opened"), std::string::npos);
  EXPECT_NE(json.find("server.sessions.active"), std::string::npos);
  EXPECT_NE(json.find("server.admission.admitted"), std::string::npos);
  EXPECT_NE(json.find("session.statements"), std::string::npos);
}

}  // namespace
}  // namespace mmdb
