#include "db/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/datagen.h"

namespace mmdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    MMDB_CHECK(db_.CreateTable("emp", Schema({Column::Int64("emp_id"),
                                              Column::Char("name", 20),
                                              Column::Int64("dept"),
                                              Column::Double("salary")}))
                   .ok());
    MMDB_CHECK(db_.CreateTable("dept", Schema({Column::Int64("dept_id"),
                                               Column::Char("dname", 12)}))
                   .ok());
    for (int64_t d = 0; d < 5; ++d) {
      MMDB_CHECK(db_.Insert("dept", {d, "dept" + std::to_string(d)}).ok());
    }
    Random rng(9);
    for (int64_t i = 0; i < 500; ++i) {
      MMDB_CHECK(db_.Insert("emp", {i, "name" + std::to_string(i),
                                    static_cast<int64_t>(rng.Uniform(5)),
                                    1000.0 + double(i)})
                     .ok());
    }
  }

  Database db_;
};

TEST_F(DatabaseTest, DdlErrors) {
  EXPECT_EQ(db_.CreateTable("emp", Schema({Column::Int64("x")})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.CreateTable("empty", Schema(std::vector<Column>{})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.Insert("nope", {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.Insert("dept", {Value{int64_t{1}}}).code(),
            StatusCode::kInvalidArgument);  // arity
  EXPECT_EQ(db_.Insert("dept", {Value{1.5}, Value{std::string("x")}}).code(),
            StatusCode::kInvalidArgument);  // type
}

TEST_F(DatabaseTest, IndexLookupAllTypes) {
  ASSERT_TRUE(db_.CreateIndex("emp", "emp_id",
                              Database::IndexType::kBTree).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "name", Database::IndexType::kAvl).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "dept", Database::IndexType::kHash).ok());

  auto by_id = db_.IndexLookup("emp", "emp_id", Value{int64_t{123}});
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(std::get<int64_t>((*by_id)[0]), 123);

  auto by_name = db_.IndexLookup("emp", "name", Value{std::string("name77")});
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(std::get<int64_t>((*by_name)[0]), 77);

  auto by_dept = db_.IndexLookup("emp", "dept", Value{int64_t{3}});
  ASSERT_TRUE(by_dept.ok());
  EXPECT_EQ(std::get<int64_t>((*by_dept)[2]), 3);

  EXPECT_EQ(db_.IndexLookup("emp", "emp_id", Value{int64_t{9999}})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.IndexLookup("emp", "salary", Value{1.0}).status().code(),
            StatusCode::kNotFound);  // no index on salary
}

TEST_F(DatabaseTest, IndexesMaintainedByLaterInserts) {
  ASSERT_TRUE(db_.CreateIndex("emp", "emp_id",
                              Database::IndexType::kBTree).ok());
  ASSERT_TRUE(db_.Insert("emp", {int64_t{100000}, std::string("late"),
                                 int64_t{1}, 9.0})
                  .ok());
  auto row = db_.IndexLookup("emp", "emp_id", Value{int64_t{100000}});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(std::get<std::string>((*row)[1]), "late");
}

TEST_F(DatabaseTest, IndexRangeScanOrdered) {
  ASSERT_TRUE(db_.CreateIndex("emp", "emp_id", Database::IndexType::kAvl).ok());
  std::vector<int64_t> ids;
  ASSERT_TRUE(db_.IndexRangeScan("emp", "emp_id", Value{int64_t{490}}, 5,
                                 [&](const Row& row) {
                                   ids.push_back(std::get<int64_t>(row[0]));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{490, 491, 492, 493, 494}));
  // Hash indexes refuse ordered scans.
  ASSERT_TRUE(db_.CreateIndex("emp", "dept", Database::IndexType::kHash).ok());
  EXPECT_EQ(db_.IndexRangeScan("emp", "dept", Value{int64_t{0}}, 1,
                               [](const Row&) { return true; })
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DatabaseTest, AutoIndexFollowsSection2Model) {
  // Big buffer pool (whole DB resident) => AVL; starved pool => B+-tree.
  Database::Options big;
  big.buffer_pool_pages = 1 << 20;
  Database rich(big);
  Relation emp = MakeEmployeeRelation(2000, 64, 1);
  ASSERT_TRUE(rich.CreateTable("emp", emp.schema()).ok());
  ASSERT_TRUE(rich.BulkLoad("emp", emp).ok());
  auto pick = rich.PickIndexType("emp", "emp_id");
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, Database::IndexType::kAvl);

  Database::Options tiny;
  tiny.buffer_pool_pages = 4;
  Database poor(tiny);
  ASSERT_TRUE(poor.CreateTable("emp", emp.schema()).ok());
  ASSERT_TRUE(poor.BulkLoad("emp", emp).ok());
  pick = poor.PickIndexType("emp", "emp_id");
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, Database::IndexType::kBTree);
}

TEST_F(DatabaseTest, QueryJoinFilterProject) {
  Query q;
  q.tables = {"emp", "dept"};
  q.joins = {{ColumnRef{"emp", "dept"}, ColumnRef{"dept", "dept_id"}}};
  q.filters = {{"emp", "salary", CmpOp::kGe, Value{1400.0}}};
  q.select_columns = {{"emp", "emp_id"}, {"dept", "dname"}};
  auto result = db_.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation.num_tuples(), 100);  // salaries 1400..1499
  EXPECT_EQ(result->relation.schema().num_columns(), 2);
  EXPECT_NE(result->plan_text.find("hybrid-hash"), std::string::npos);
}

TEST_F(DatabaseTest, ExecuteAggregateGroupsQueryResult) {
  Query q;
  q.tables = {"emp"};
  AggregateSpec agg;
  agg.group_by = {2};  // dept
  agg.aggregates.push_back({AggFn::kCount, 0, "n"});
  auto out = db_.ExecuteAggregate(q, agg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_tuples(), 5);
  int64_t total = 0;
  for (const Row& row : out->rows()) total += std::get<int64_t>(row[1]);
  EXPECT_EQ(total, 500);
}

TEST_F(DatabaseTest, ExplainWithoutExecuting) {
  Query q;
  q.tables = {"emp"};
  q.filters = {{"emp", "dept", CmpOp::kEq, Value{int64_t{0}}}};
  auto plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Filter"), std::string::npos);
  EXPECT_NE(plan->find("Scan(emp)"), std::string::npos);
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
  Query q;
  q.tables = {"dept"};
  EXPECT_TRUE(db_.Execute(q).ok());
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
  Query q;
  q.tables = {"emp"};
  q.filters = {{"emp", "dept", CmpOp::kEq, Value{int64_t{1}}}};
  const double before = db_.clock()->Seconds();
  ASSERT_TRUE(db_.Execute(q).ok());
  EXPECT_GT(db_.clock()->Seconds(), before);
}


TEST_F(DatabaseTest, PlannerUsesIndexesForSelectiveRestrictions) {
  ASSERT_TRUE(db_.CreateIndex("emp", "emp_id",
                              Database::IndexType::kBTree).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "name", Database::IndexType::kAvl).ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "dept", Database::IndexType::kHash).ok());

  // Equality on the B+-tree column.
  Query q;
  q.tables = {"emp"};
  q.filters = {{"emp", "emp_id", CmpOp::kEq, Value{int64_t{77}}}};
  auto plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan[btree]"), std::string::npos) << *plan;
  auto result = db_.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->relation.num_tuples(), 1);
  EXPECT_EQ(std::get<int64_t>(result->relation.rows()[0][0]), 77);

  // Equality on the hash column: many matches, all returned.
  Query q2;
  q2.tables = {"emp"};
  q2.filters = {{"emp", "dept", CmpOp::kEq, Value{int64_t{2}}}};
  auto plan2 = db_.Explain(q2);
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->find("IndexScan[hash]"), std::string::npos) << *plan2;
  auto r2 = db_.Execute(q2);
  ASSERT_TRUE(r2.ok());
  int64_t expected = 0;
  for (const Row& row : (*db_.GetTable("emp"))->rows()) {
    if (std::get<int64_t>(row[2]) == 2) ++expected;
  }
  EXPECT_EQ(r2->relation.num_tuples(), expected);

  // Prefix on the AVL (ordered) column.
  Query q3;
  q3.tables = {"emp"};
  q3.filters = {{"emp", "name", CmpOp::kPrefix, Value{std::string("name4")}}};
  auto plan3 = db_.Explain(q3);
  ASSERT_TRUE(plan3.ok());
  EXPECT_NE(plan3->find("IndexScan[avl]"), std::string::npos) << *plan3;
  auto r3 = db_.Execute(q3);
  ASSERT_TRUE(r3.ok());
  // name4, name40..name49, name400..name499: 111 matches.
  EXPECT_EQ(r3->relation.num_tuples(), 111);
}

TEST_F(DatabaseTest, IndexScanResultsMatchFullScan) {
  // Same query with and without indexes must agree; residual predicates
  // still apply above the IndexScan.
  Query q;
  q.tables = {"emp", "dept"};
  q.joins = {{ColumnRef{"emp", "dept"}, ColumnRef{"dept", "dept_id"}}};
  q.filters = {{"emp", "dept", CmpOp::kEq, Value{int64_t{1}}},
               {"emp", "salary", CmpOp::kGe, Value{1200.0}}};
  q.select_columns = {{"emp", "emp_id"}, {"dept", "dname"}};
  auto before = db_.Execute(q);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db_.CreateIndex("emp", "dept", Database::IndexType::kHash).ok());
  auto after = db_.Execute(q);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->plan_text.find("IndexScan"), std::string::npos);
  std::multiset<std::string> a, b;
  for (const Row& row : before->relation.rows()) a.insert(RowToString(row));
  for (const Row& row : after->relation.rows()) b.insert(RowToString(row));
  EXPECT_EQ(a, b);
  // The indexed execution does strictly less comparison work.
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
  for (int64_t k = 0; k < kPreloaded; ++k) {
    ASSERT_TRUE(db.Insert("t", {Value{-1 - k}, Value{k % 5}}).ok());
  }
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

}  // namespace
}  // namespace mmdb
