#include "db/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "storage/datagen.h"

namespace mmdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    Relation emp(Schema({Column::Int64("emp_id"), Column::Char("name", 20),
                         Column::Int64("dept"), Column::Double("salary")}));
    Relation dept(
        Schema({Column::Int64("dept_id"), Column::Char("dname", 12)}));
    MMDB_CHECK(db_.CreateTable("emp", emp.schema()).ok());
    MMDB_CHECK(db_.CreateTable("dept", dept.schema()).ok());
    for (int64_t d = 0; d < 5; ++d) {
      dept.Add({d, "dept" + std::to_string(d)});
    }
    Random rng(9);
    for (int64_t i = 0; i < 500; ++i) {
      emp.Add({i, "name" + std::to_string(i),
               static_cast<int64_t>(rng.Uniform(5)), 1000.0 + double(i)});
    }
    MMDB_CHECK(db_.BulkLoad("dept", std::move(dept)).ok());
    MMDB_CHECK(db_.BulkLoad("emp", std::move(emp)).ok());
  }

  /// Runs one statement, which must succeed.
  Database::SqlResult Sql(const std::string& sql) {
    StatusOr<Database::SqlResult> result = db_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? std::move(*result) : Database::SqlResult{};
  }

  Database db_;
};

TEST_F(DatabaseTest, DdlErrors) {
  EXPECT_EQ(db_.CreateTable("emp", Schema({Column::Int64("x")})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.CreateTable("empty", Schema(std::vector<Column>{})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.ExecuteSql("INSERT INTO nope VALUES (1)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.ExecuteSql("INSERT INTO dept VALUES (1)").status().code(),
            StatusCode::kInvalidArgument);  // arity
  EXPECT_EQ(
      db_.ExecuteSql("INSERT INTO dept VALUES (1.5, 'x')").status().code(),
      StatusCode::kInvalidArgument);  // type
  const Schema dept_schema = (*db_.GetTable("dept"))->schema();
  EXPECT_EQ(db_.BulkLoad("nope", Relation(dept_schema)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.BulkLoad("emp", Relation(dept_schema)).code(),
            StatusCode::kInvalidArgument);  // schema
}

TEST_F(DatabaseTest, IndexLookupAllTypes) {
  ASSERT_TRUE(db_.CreateIndex("emp", "emp_id",
                              Database::IndexType::kBTree).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "name", Database::IndexType::kAvl).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "dept", Database::IndexType::kHash).ok());

  Database::SqlResult by_id = Sql("SELECT * FROM emp WHERE emp_id = 123");
  EXPECT_NE(by_id.plan_text.find("IndexScan[btree]"), std::string::npos);
  ASSERT_EQ(by_id.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<int64_t>(by_id.relation.rows()[0][0]), 123);

  Database::SqlResult by_name = Sql("SELECT * FROM emp WHERE name = 'name77'");
  EXPECT_NE(by_name.plan_text.find("IndexScan[avl]"), std::string::npos);
  ASSERT_EQ(by_name.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<int64_t>(by_name.relation.rows()[0][0]), 77);

  Database::SqlResult by_dept = Sql("SELECT * FROM emp WHERE dept = 3");
  EXPECT_NE(by_dept.plan_text.find("IndexScan[hash]"), std::string::npos);
  ASSERT_GT(by_dept.relation.num_tuples(), 0);
  for (const Row& row : by_dept.relation.rows()) {
    EXPECT_EQ(std::get<int64_t>(row[2]), 3);
  }

  EXPECT_EQ(Sql("SELECT * FROM emp WHERE emp_id = 9999").relation.num_tuples(),
            0);
  // No index on salary: a scan answers instead.
  Database::SqlResult by_salary = Sql("SELECT * FROM emp WHERE salary = 1.0");
  EXPECT_EQ(by_salary.plan_text.find("IndexScan"), std::string::npos);
  EXPECT_EQ(by_salary.relation.num_tuples(), 0);
}

TEST_F(DatabaseTest, IndexesMaintainedByLaterInserts) {
  ASSERT_TRUE(db_.CreateIndex("emp", "emp_id",
                              Database::IndexType::kBTree).ok());
  Sql("INSERT INTO emp VALUES (100000, 'late', 1, 9.0)");
  Database::SqlResult row = Sql("SELECT name FROM emp WHERE emp_id = 100000");
  EXPECT_NE(row.plan_text.find("IndexScan[btree]"), std::string::npos);
  ASSERT_EQ(row.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<std::string>(row.relation.rows()[0][0]), "late");
}

TEST_F(DatabaseTest, AutoIndexFollowsSection2Model) {
  // Big buffer pool (whole DB resident) => AVL; starved pool => B+-tree.
  Database::Options big;
  big.buffer_pool_pages = 1 << 20;
  Database rich(big);
  Relation emp = MakeEmployeeRelation(2000, 64, 1);
  ASSERT_TRUE(rich.CreateTable("emp", emp.schema()).ok());
  ASSERT_TRUE(rich.BulkLoad("emp", emp).ok());
  ASSERT_TRUE(
      rich.CreateIndex("emp", "emp_id", Database::IndexType::kAuto).ok());
  const IndexInfo* picked = rich.catalog().FindIndex("emp", "emp_id");
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->kind, IndexKind::kAvl);

  Database::Options tiny;
  tiny.buffer_pool_pages = 4;
  Database poor(tiny);
  ASSERT_TRUE(poor.CreateTable("emp", emp.schema()).ok());
  ASSERT_TRUE(poor.BulkLoad("emp", emp).ok());
  ASSERT_TRUE(
      poor.CreateIndex("emp", "emp_id", Database::IndexType::kAuto).ok());
  picked = poor.catalog().FindIndex("emp", "emp_id");
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->kind, IndexKind::kBTree);
}

// A B+-tree keys INT64 and CHAR columns only. On a DOUBLE column it is
// refused before anything is built, even on an empty table: had it been
// built, every later INSERT would fail in it after the row's key had
// already gone into the table's other indexes.
TEST_F(DatabaseTest, BTreeOnDoubleColumnIsRefusedAndInsertsStillWork) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (k INT64, x DOUBLE)").ok());
  ASSERT_TRUE(db.CreateIndex("t", "k", Database::IndexType::kHash).ok());
  EXPECT_EQ(db.CreateIndex("t", "x", Database::IndexType::kBTree).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.catalog().FindIndex("t", "x"), nullptr);
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (7, 1.5), (8, 2.5)").ok());
  auto found = db.IndexLookupAll(
      "t", Predicate{"t", "k", CmpOp::kEq, Value{int64_t{7}}}, nullptr);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(found->num_tuples(), 1);
  EXPECT_EQ(std::get<double>(found->rows()[0][1]), 1.5);
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM t")->relation.num_tuples(), 2);
}

// The B+-tree keys a CHAR column by its first 32 bytes. On a CHAR(48)
// column, 1500 rows share the probe's first 32 bytes and are inserted
// before it, so an ordered scan that stopped at the first row whose full
// value does not match returned nothing. Every access path must find the
// one matching row, for equality and for a prefix longer than the key.
TEST_F(DatabaseTest, WideCharKeysFindEveryRowOnEveryAccessPath) {
  const std::string shared(32, 'a');
  const std::string probe = shared + "y";
  const struct {
    const char* plan;  ///< the access path the plan must show
    std::optional<Database::IndexType> index;
  } paths[] = {{"IndexScan[btree]", Database::IndexType::kBTree},
               {"IndexScan[avl]", Database::IndexType::kAvl},
               {"IndexScan[hash]", Database::IndexType::kHash},
               {"Scan(t)", std::nullopt}};
  for (const auto& path : paths) {
    SCOPED_TRACE(path.plan);
    Database db;
    ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id INT64, name CHAR(48))").ok());
    Relation rows((*db.GetTable("t"))->schema());
    for (int64_t id = 0; id < 2999; ++id) {
      rows.Add({id, id % 2 == 0 ? shared + "x" : "n" + std::to_string(id)});
    }
    rows.Add({int64_t{2999}, probe});
    ASSERT_TRUE(db.BulkLoad("t", std::move(rows)).ok());
    if (path.index) ASSERT_TRUE(db.CreateIndex("t", "name", *path.index).ok());

    auto eq = db.ExecuteSql("SELECT id FROM t WHERE name = '" + probe + "'");
    ASSERT_TRUE(eq.ok()) << eq.status().ToString();
    EXPECT_NE(eq->plan_text.find(path.plan), std::string::npos)
        << eq->plan_text;
    ASSERT_EQ(eq->relation.num_tuples(), 1);
    EXPECT_EQ(std::get<int64_t>(eq->relation.rows()[0][0]), 2999);

    auto like = db.ExecuteSql("SELECT id FROM t WHERE name LIKE '" + probe +
                              "%'");
    ASSERT_TRUE(like.ok()) << like.status().ToString();
    ASSERT_EQ(like->relation.num_tuples(), 1) << like->plan_text;
    EXPECT_EQ(std::get<int64_t>(like->relation.rows()[0][0]), 2999);
  }
}

TEST_F(DatabaseTest, AutoIndexOnDoubleColumnPicksAvl) {
  Database::Options tiny;
  tiny.buffer_pool_pages = 4;
  Database poor(tiny);
  Relation emp = MakeEmployeeRelation(2000, 64, 1);
  ASSERT_TRUE(poor.CreateTable("emp", emp.schema()).ok());
  ASSERT_TRUE(poor.BulkLoad("emp", emp).ok());
  // The pool that makes the §2 model pick a B+-tree for emp_id...
  ASSERT_TRUE(
      poor.CreateIndex("emp", "emp_id", Database::IndexType::kAuto).ok());
  const IndexInfo* picked = poor.catalog().FindIndex("emp", "emp_id");
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->kind, IndexKind::kBTree);
  // ...picks AVL for salary, which a B+-tree cannot key.
  ASSERT_TRUE(
      poor.CreateIndex("emp", "salary", Database::IndexType::kAuto).ok());
  picked = poor.catalog().FindIndex("emp", "salary");
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->kind, IndexKind::kAvl);
  ASSERT_TRUE(
      poor.ExecuteSql("INSERT INTO emp VALUES (5000, 'probe', 1, 12345.5, '')")
          .ok());
  auto found = poor.ExecuteSql("SELECT emp_id FROM emp WHERE salary = 12345.5");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(found->relation.num_tuples(), 1);
  EXPECT_EQ(std::get<int64_t>(found->relation.rows()[0][0]), 5000);
}

TEST_F(DatabaseTest, QueryJoinFilterProject) {
  Database::SqlResult result =
      Sql("SELECT emp.emp_id, dept.dname FROM emp, dept "
          "WHERE emp.dept = dept.dept_id AND emp.salary >= 1400.0");
  EXPECT_EQ(result.relation.num_tuples(), 100);  // salaries 1400..1499
  EXPECT_EQ(result.relation.schema().num_columns(), 2);
  EXPECT_NE(result.plan_text.find("hybrid-hash"), std::string::npos);
}

TEST_F(DatabaseTest, ExecuteAggregateGroupsQueryResult) {
  Database::SqlResult out = Sql("SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  EXPECT_EQ(out.relation.num_tuples(), 5);
  int64_t total = 0;
  for (const Row& row : out.relation.rows()) total += std::get<int64_t>(row[1]);
  EXPECT_EQ(total, 500);
}

TEST_F(DatabaseTest, ExplainWithoutExecuting) {
  Database::SqlResult plan = Sql("EXPLAIN SELECT * FROM emp WHERE dept = 0");
  EXPECT_NE(plan.plan_text.find("Filter"), std::string::npos);
  EXPECT_NE(plan.plan_text.find("Scan(emp)"), std::string::npos);
  EXPECT_EQ(plan.relation.num_tuples(), 0);
}

TEST_F(DatabaseTest, TransactionsRequireEnabling) {
  EXPECT_EQ(db_.Crash().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.CheckpointNow().status().code(),
            StatusCode::kFailedPrecondition);
  Database::TxnPlaneOptions topts;
  topts.log_write_latency = std::chrono::microseconds(0);
  ASSERT_TRUE(db_.EnableTransactions(topts).ok());
  EXPECT_EQ(db_.EnableTransactions(topts).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_NE(db_.txn_manager(), nullptr);
}

TEST_F(DatabaseTest, EndToEndCrashRecoveryThroughFacade) {
  Database::TxnPlaneOptions topts;
  topts.num_records = 100;
  topts.record_size = 32;
  topts.log_write_latency = std::chrono::microseconds(0);
  ASSERT_TRUE(db_.EnableTransactions(topts).ok());
  auto* tm = db_.txn_manager();
  const TxnId t = tm->Begin();
  std::string value(32, 'v');
  ASSERT_TRUE(tm->Update(t, 42, value).ok());
  ASSERT_TRUE(tm->Commit(t).ok());
  ASSERT_TRUE(db_.CheckpointNow().ok());
  ASSERT_TRUE(db_.Crash().ok());
  auto stats = db_.Recover();
  ASSERT_TRUE(stats.ok());
  std::string out;
  ASSERT_TRUE(db_.recoverable_store()->ReadRecord(42, &out).ok());
  EXPECT_EQ(out, value);
  // Query plane is unaffected by the crash of the txn plane.
  EXPECT_EQ(Sql("SELECT * FROM dept").relation.num_tuples(), 5);
}

TEST_F(DatabaseTest, SqlCommitIdsStayDisjointFromRecordPlaneAcrossRecovery) {
  Database::TxnPlaneOptions topts;
  topts.num_records = 100;
  topts.record_size = 32;
  topts.log_write_latency = std::chrono::microseconds(0);
  ASSERT_TRUE(db_.EnableTransactions(topts).ok());
  // A durable SQL write leaves a commit record with an id at/above
  // kSqlStmtTxnBase in the log.
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(db_.Crash().ok());
  auto stats1 = db_.Recover();
  ASSERT_TRUE(stats1.ok());
  // The SQL id must not leak into the record plane's restart seed.
  EXPECT_LT(stats1->max_txn_id, kSqlStmtTxnBase);
  EXPECT_GE(stats1->max_sql_stmt_txn_id, kSqlStmtTxnBase);

  auto* tm = db_.txn_manager();
  const std::string committed(32, 'A');
  const std::string uncommitted(32, 'L');
  const TxnId winner = tm->Begin();
  EXPECT_LT(winner, kSqlStmtTxnBase);
  ASSERT_TRUE(tm->Update(winner, 7, committed).ok());
  ASSERT_TRUE(tm->Commit(winner).ok());
  // In flight at the crash, so the next recovery must undo it — even with
  // SQL statement commits landing in the log after its update.
  const TxnId loser = tm->Begin();
  ASSERT_TRUE(tm->Update(loser, 7, uncommitted).ok());
  ASSERT_TRUE(db_.ExecuteSql("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db_.ExecuteSql("INSERT INTO t VALUES (2)").ok());

  ASSERT_TRUE(db_.Crash().ok());
  ASSERT_TRUE(db_.Recover().ok());
  // With a shared id space the loser could alias one of those SQL commit
  // records, be classified a winner, and have `uncommitted` redone.
  std::string out;
  ASSERT_TRUE(db_.recoverable_store()->ReadRecord(7, &out).ok());
  EXPECT_EQ(out, committed);
}

TEST_F(DatabaseTest, ClockAccumulatesAcrossQueries) {
  const double before = db_.clock()->Seconds();
  Sql("SELECT * FROM emp WHERE dept = 1");
  EXPECT_GT(db_.clock()->Seconds(), before);
}

TEST_F(DatabaseTest, PlannerUsesIndexesForSelectiveRestrictions) {
  ASSERT_TRUE(db_.CreateIndex("emp", "emp_id",
                              Database::IndexType::kBTree).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "name", Database::IndexType::kAvl).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "dept", Database::IndexType::kHash).ok());

  // Equality on the B+-tree column.
  const std::string q = "SELECT * FROM emp WHERE emp_id = 77";
  const std::string plan = Sql("EXPLAIN " + q).plan_text;
  EXPECT_NE(plan.find("IndexScan[btree]"), std::string::npos) << plan;
  Database::SqlResult result = Sql(q);
  ASSERT_EQ(result.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<int64_t>(result.relation.rows()[0][0]), 77);

  // Equality on the hash column: many matches, all returned.
  const std::string q2 = "SELECT * FROM emp WHERE dept = 2";
  const std::string plan2 = Sql("EXPLAIN " + q2).plan_text;
  EXPECT_NE(plan2.find("IndexScan[hash]"), std::string::npos) << plan2;
  Database::SqlResult r2 = Sql(q2);
  int64_t expected = 0;
  for (const Row& row : (*db_.GetTable("emp"))->rows()) {
    if (std::get<int64_t>(row[2]) == 2) ++expected;
  }
  EXPECT_EQ(r2.relation.num_tuples(), expected);

  // Prefix on the AVL (ordered) column.
  const std::string q3 = "SELECT * FROM emp WHERE name LIKE 'name4%'";
  const std::string plan3 = Sql("EXPLAIN " + q3).plan_text;
  EXPECT_NE(plan3.find("IndexScan[avl]"), std::string::npos) << plan3;
  // name4, name40..name49, name400..name499: 111 matches.
  EXPECT_EQ(Sql(q3).relation.num_tuples(), 111);
}

TEST_F(DatabaseTest, IndexScanResultsMatchFullScan) {
  // Same query with and without indexes must agree; residual predicates
  // still apply above the IndexScan.
  const std::string q =
      "SELECT emp.emp_id, dept.dname FROM emp, dept "
      "WHERE emp.dept = dept.dept_id AND emp.dept = 1 "
      "AND emp.salary >= 1200.0";
  Database::SqlResult before = Sql(q);
  ASSERT_TRUE(db_.CreateIndex("emp", "dept", Database::IndexType::kHash).ok());
  Database::SqlResult after = Sql(q);
  EXPECT_NE(after.plan_text.find("IndexScan"), std::string::npos);
  std::multiset<std::string> a, b;
  for (const Row& row : before.relation.rows()) a.insert(RowToString(row));
  for (const Row& row : after.relation.rows()) b.insert(RowToString(row));
  EXPECT_EQ(a, b);
}

// INSERT marks only the statistics stale; the first planning statement
// rebuilds them once. What it plans with must equal a catalog built
// fresh over the same rows.
TEST(SqlCatalogTest, StatisticsAfterInsertsMatchAFreshCatalog) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (k INT64, v INT64)").ok());
  for (int64_t batch = 0; batch < 10; ++batch) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int64_t i = 0; i < 10; ++i) {
      const int64_t k = batch * 10 + i;
      sql += i == 0 ? "(" : ", (";
      sql += std::to_string(k) + ", " + std::to_string(k % 7) + ")";
    }
    ASSERT_TRUE(db.ExecuteSql(sql).ok());
    ASSERT_TRUE(db.ExecuteSql("UPDATE t SET v = 9 WHERE k = " +
                              std::to_string(batch * 3))
                    .ok());
  }
  auto selected = db.ExecuteSql("SELECT k FROM t WHERE v = 9");
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->relation.num_tuples(), 10);

  auto planned = db.catalog().Lookup("t");
  ASSERT_TRUE(planned.ok());
  auto relation = db.GetTable("t");
  ASSERT_TRUE(relation.ok());
  Catalog fresh;
  ASSERT_TRUE(fresh.RegisterTable("t", *relation).ok());
  const TableStats& got = (*planned)->stats;
  const TableStats& want = (*fresh.Lookup("t"))->stats;
  EXPECT_EQ(got.num_tuples, 100);
  EXPECT_EQ(got.num_tuples, want.num_tuples);
  EXPECT_EQ(got.num_pages, want.num_pages);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < got.columns.size(); ++c) {
    EXPECT_EQ(got.columns[c].num_distinct, want.columns[c].num_distinct);
    EXPECT_TRUE(ValuesEqual(got.columns[c].min_value,
                            want.columns[c].min_value));
    EXPECT_TRUE(ValuesEqual(got.columns[c].max_value,
                            want.columns[c].max_value));
  }

  // An index changes what a write parse needs, so it rebuilds at once.
  ASSERT_TRUE(db.CreateIndex("t", "k", Database::IndexType::kHash).ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (100, 1)").ok());
  EXPECT_NE(db.catalog().FindIndex("t", "k"), nullptr);
}

// Write parses run under the shared latch beside readers that may
// rebuild stale statistics; the two must never overlap (TSan checks).
// Each INSERT leaves the statistics stale, and the UPDATE after it parses
// against the catalog while readers rebuild.
TEST(SqlCatalogConcurrencyTest, InsertsBesideReadersThatRebuildStatistics) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (k INT64, v INT64)").ok());
  // Enough rows that each statistics rebuild takes a while, so write
  // parses land inside it.
  constexpr int64_t kPreloaded = 5000;
  Relation preload((*db.GetTable("t"))->schema());
  for (int64_t k = 0; k < kPreloaded; ++k) {
    preload.Add({Value{-1 - k}, Value{k % 5}});
  }
  ASSERT_TRUE(db.BulkLoad("t", std::move(preload)).ok());
  constexpr int kWriters = 2;
  constexpr int kInsertsEach = 100;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kInsertsEach; ++i) {
        const int64_t k = w * kInsertsEach + i;
        EXPECT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (" +
                                  std::to_string(k) + ", " +
                                  std::to_string(k % 5) + ")")
                        .ok());
        EXPECT_TRUE(
            db.ExecuteSql("UPDATE t SET v = 4 WHERE k = " + std::to_string(k))
                .ok());
      }
      --writers_left;
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        EXPECT_TRUE(db.ExecuteSql("SELECT k FROM t WHERE v = 3").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto all = db.ExecuteSql("SELECT k FROM t WHERE v = 4");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->relation.num_tuples(), kWriters * kInsertsEach + 1000);
  EXPECT_EQ((*db.catalog().Lookup("t"))->stats.num_tuples,
            kPreloaded + kWriters * kInsertsEach);
}

// CreateIndex and BulkLoad take the latch exclusively, so they may run
// beside SQL statements on other threads (TSan checks). The readers'
// point SELECT on t turns into an IndexScan once the index lands, and
// their scans of u see whole batches only.
TEST(SqlCatalogConcurrencyTest, CreateIndexAndBulkLoadBesideReaders) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (k INT64, v INT64)").ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE u (k INT64, v INT64)").ok());
  const Schema schema = (*db.GetTable("t"))->schema();
  constexpr int64_t kRows = 2000;
  Relation rows(schema);
  for (int64_t k = 0; k < kRows; ++k) rows.Add({Value{k}, Value{k % 5}});
  ASSERT_TRUE(db.BulkLoad("t", std::move(rows)).ok());

  constexpr int kBatches = 20;
  constexpr int64_t kBatchRows = 100;
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto point = db.ExecuteSql("SELECT v FROM t WHERE k = 7");
        EXPECT_TRUE(point.ok() && point->relation.num_tuples() == 1);
        auto scan = db.ExecuteSql("SELECT k FROM t WHERE v = 3");
        EXPECT_TRUE(scan.ok() && scan->relation.num_tuples() == kRows / 5);
        auto loaded = db.ExecuteSql("SELECT k FROM u");
        EXPECT_TRUE(loaded.ok() &&
                    loaded->relation.num_tuples() % kBatchRows == 0);
        ++reads;
      }
    });
  }
  while (reads.load() < 2) std::this_thread::yield();
  EXPECT_TRUE(db.CreateIndex("t", "k", Database::IndexType::kBTree).ok());
  for (int b = 0; b < kBatches; ++b) {
    Relation batch(schema);
    for (int64_t i = 0; i < kBatchRows; ++i) {
      batch.Add({Value{b * kBatchRows + i}, Value{i % 5}});
    }
    EXPECT_TRUE(db.BulkLoad("u", std::move(batch)).ok());
  }
  done = true;
  for (std::thread& t : readers) t.join();

  auto plan = db.ExecuteSql("EXPLAIN SELECT v FROM t WHERE k = 7");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->plan_text.find("IndexScan[btree]"), std::string::npos)
      << plan->plan_text;
  auto loaded = db.ExecuteSql("SELECT k FROM u");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->relation.num_tuples(), kBatches * kBatchRows);
}

}  // namespace
}  // namespace mmdb
