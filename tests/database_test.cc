#include "db/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sim/fault_injector.h"
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

TEST_F(DatabaseTest, InsertRefusesCharWiderThanColumn) {
  ASSERT_TRUE(db_.CreateIndex("dept", "dept_id",
                              Database::IndexType::kHash).ok());
  Sql("CREATE TABLE b (bid INT64, name CHAR(4))");
  EXPECT_EQ(db_.ExecuteSql("INSERT INTO b VALUES (1, 'abcdefghij')")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A multi-row statement with one row too wide changes nothing.
  EXPECT_EQ(db_.ExecuteSql("INSERT INTO dept VALUES (9, 'ok'), "
                           "(10, 'far too wide for twelve')")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Sql("SELECT * FROM b").relation.num_tuples(), 0);
  EXPECT_EQ(Sql("SELECT * FROM dept").relation.num_tuples(), 5);
  EXPECT_EQ(Sql("SELECT * FROM dept WHERE dept_id = 9").relation.num_tuples(),
            0);
  // The full width fits.
  Sql("INSERT INTO b VALUES (1, 'abcd')");
  auto r = Sql("SELECT name FROM b");
  ASSERT_EQ(r.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<std::string>(r.relation.RowAt(0)[0]), "abcd");
}

TEST_F(DatabaseTest, UpdateRefusesCharWiderThanColumn) {
  Sql("CREATE TABLE b (bid INT64, name CHAR(4))");
  Sql("INSERT INTO b VALUES (1, 'ab')");
  EXPECT_EQ(db_.ExecuteSql("UPDATE b SET name = 'zzzzzzzzzzzzzz' WHERE "
                           "bid = 1")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto r = Sql("SELECT name FROM b");
  ASSERT_EQ(r.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<std::string>(r.relation.RowAt(0)[0]), "ab");
  Sql("UPDATE b SET name = 'wxyz' WHERE bid = 1");
  EXPECT_EQ(std::get<std::string>(Sql("SELECT name FROM b").relation.RowAt(
                0)[0]),
            "wxyz");
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
  auto found = db.IndexOrdinals(
      "t", Predicate{"t", "k", CmpOp::kEq, Value{int64_t{7}}});
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ(std::get<double>((*db.GetTable("t"))->RowAt((*found)[0])[1]),
            1.5);
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

/// t(k INT64, v INT64) with rows (i, i % 100) for i < 5000, and a B+-tree
/// on k whose pages outnumber the pool's `pool_pages` frames.
std::unique_ptr<Database> OpenBTreeTable(int64_t pool_pages) {
  Database::Options opts;
  opts.buffer_pool_pages = pool_pages;
  auto db = std::make_unique<Database>(opts);
  MMDB_CHECK(db->ExecuteSql("CREATE TABLE t (k INT64, v INT64)").ok());
  Relation rows((*db->GetTable("t"))->schema());
  for (int64_t i = 0; i < 5000; ++i) rows.Add({i, i % 100});
  MMDB_CHECK(db->BulkLoad("t", std::move(rows)).ok());
  MMDB_CHECK(db->CreateIndex("t", "k", Database::IndexType::kBTree).ok());
  return db;
}

/// The number of rows `SELECT v FROM t WHERE k = <key>` returns, checking
/// that the plan shows `path`.
int64_t CountKey(Database* db, int64_t key, const std::string& path) {
  auto found = db->ExecuteSql("SELECT v FROM t WHERE k = " +
                              std::to_string(key));
  EXPECT_TRUE(found.ok()) << found.status().ToString();
  if (!found.ok()) return -1;
  EXPECT_NE(found->plan_text.find(path), std::string::npos)
      << found->plan_text;
  return found->relation.num_tuples();
}

// An UPDATE that assigns an indexed key rebuilds the index. The old
// B+-tree's disk file goes with it, so its dirty frames must leave the
// pool first: the rebuild's evictions must not write to a deleted file
// ("no such file").
TEST(SqlKeyUpdateTest, BTreeRebuildWithASmallPoolKeepsTheIndexSound) {
  std::unique_ptr<Database> db = OpenBTreeTable(8);
  auto update = db->ExecuteSql("UPDATE t SET k = 100000 WHERE v = 0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->rows_affected, 50);
  EXPECT_EQ(CountKey(db.get(), 100000, "IndexScan[btree]"), 50);
  EXPECT_EQ(CountKey(db.get(), 100, "IndexScan[btree]"), 0);  // moved away
  EXPECT_EQ(CountKey(db.get(), 101, "IndexScan[btree]"), 1);
}

// A rebuild that fails leaves the column unindexed, and the catalog must
// say so even though the UPDATE returns an error; otherwise every later
// lookup on k fails with "no index on t.k".
TEST(SqlKeyUpdateTest, FailedRebuildLeavesTheColumnUnindexedNotStale) {
  std::unique_ptr<Database> db = OpenBTreeTable(8);
  FaultInjectorOptions every_transfer_fails;
  every_transfer_fails.transient_error_rate = 1.0;
  FaultInjector injector(every_transfer_fails);
  db->disk()->set_fault_injector(&injector);
  // The rows are written before the rebuild's evictions fail.
  EXPECT_FALSE(db->ExecuteSql("UPDATE t SET k = 100000 WHERE v = 0").ok());
  db->disk()->set_fault_injector(nullptr);
  EXPECT_EQ(db->catalog().FindIndex("t", "k"), nullptr);
  EXPECT_EQ(CountKey(db.get(), 100000, "Scan(t)"), 50);
  EXPECT_EQ(CountKey(db.get(), 100, "Scan(t)"), 0);
  ASSERT_TRUE(db->CreateIndex("t", "k", Database::IndexType::kBTree).ok());
  EXPECT_EQ(CountKey(db.get(), 100000, "IndexScan[btree]"), 50);
}

// A negative INT64 key must not abort the process in the B+-tree's key
// encoding, on INSERT or on lookup. Every index kind must find it.
TEST(SqlKeyUpdateTest, NegativeKeysFindTheirRowsUnderEveryIndexKind) {
  const std::pair<const char*, Database::IndexType> kinds[] = {
      {"IndexScan[btree]", Database::IndexType::kBTree},
      {"IndexScan[avl]", Database::IndexType::kAvl},
      {"IndexScan[hash]", Database::IndexType::kHash}};
  for (const auto& [path, kind] : kinds) {
    SCOPED_TRACE(path);
    Database db;
    ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (k INT64, v INT64)").ok());
    ASSERT_TRUE(db.CreateIndex("t", "k", kind).ok());
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (-5, 1), (3, 2), "
                              "(-9223372036854775807, 3), (0, 4), (-1, 5)")
                    .ok());
    for (const auto& [key, v] : {std::pair<int64_t, int64_t>{-5, 1},
                                 {3, 2},
                                 {-9223372036854775807, 3},
                                 {0, 4},
                                 {-1, 5}}) {
      auto found = db.ExecuteSql("SELECT v FROM t WHERE k = " +
                                 std::to_string(key));
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      EXPECT_NE(found->plan_text.find(path), std::string::npos)
          << found->plan_text;
      ASSERT_EQ(found->relation.num_tuples(), 1) << key;
      EXPECT_EQ(std::get<int64_t>(found->relation.rows()[0][0]), v);
    }
    EXPECT_EQ(CountKey(&db, -4, path), 0);
  }
}

// An INSERT whose B+-tree insert fails (a leaf split needs a second frame
// of a 1-frame pool) has already put the row's key into the hash index
// before it. The row stays in the table, the hash index finds it, and the
// B+-tree, which missed it, is dropped: a lookup on its column scans
// instead of failing with "index payload out of range".
TEST(SqlIndexInsertTest, FailedIndexInsertKeepsTheRowAndDropsThatIndex) {
  Database::Options opts;
  opts.buffer_pool_pages = 1;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (a INT64, b INT64)").ok());
  ASSERT_TRUE(db.CreateIndex("t", "a", Database::IndexType::kHash).ok());
  ASSERT_TRUE(db.CreateIndex("t", "b", Database::IndexType::kBTree).ok());
  auto insert = [&db](int64_t key) {
    const std::string v = std::to_string(key);
    return db.ExecuteSql("INSERT INTO t VALUES (" + v + ", " + v + ")");
  };
  int64_t fails_at = 0;
  while (insert(fails_at).ok()) ASSERT_LT(++fails_at, 100000);
  ASSERT_GT(fails_at, 0);
  EXPECT_EQ(db.catalog().FindIndex("t", "b"), nullptr);
  ASSERT_NE(db.catalog().FindIndex("t", "a"), nullptr);
  ASSERT_TRUE(insert(-1).ok());  // the hash index is still maintained
  for (int64_t key : {int64_t{0}, fails_at - 1, fails_at, int64_t{-1}}) {
    SCOPED_TRACE(key);
    auto by_a = db.ExecuteSql("SELECT b FROM t WHERE a = " +
                              std::to_string(key));
    ASSERT_TRUE(by_a.ok()) << by_a.status().ToString();
    EXPECT_NE(by_a->plan_text.find("IndexScan[hash]"), std::string::npos);
    ASSERT_EQ(by_a->relation.num_tuples(), 1);
    EXPECT_EQ(std::get<int64_t>(by_a->relation.RowAt(0)[0]), key);
    auto by_b = db.ExecuteSql("SELECT a FROM t WHERE b = " +
                              std::to_string(key));
    ASSERT_TRUE(by_b.ok()) << by_b.status().ToString();
    EXPECT_NE(by_b->plan_text.find("Scan(t)"), std::string::npos);
    EXPECT_EQ(by_b->relation.num_tuples(), 1);
  }
}

// With a small memory grant the planner's joins no longer fit: a hybrid
// hash join spills, or another algorithm is planned, and the executor
// runs the whole-relation join kernels on its inputs instead of the
// in-memory probe. Every answer must be the default grant's, as a
// multiset.
TEST(SqlJoinGrantTest, SmallGrantsTakeTheJoinFallbackWithTheSameAnswers) {
  const char* queries[] = {
      "SELECT r.a, s.b FROM r, s WHERE r.k = s.k",
      "SELECT r.a, SUM(s.b), COUNT(*) FROM r, s WHERE r.k = s.k GROUP BY r.a",
      "SELECT DISTINCT r.a, s.b FROM r, s WHERE r.k = s.k",
  };
  auto open = [](int64_t memory_pages) {
    Database::Options opts;
    opts.memory_pages = memory_pages;
    auto db = std::make_unique<Database>(opts);
    for (const auto& [name, rows] :
         {std::pair<const char*, int64_t>{"r", 4000}, {"s", 12000}}) {
      MMDB_CHECK(db->ExecuteSql(std::string("CREATE TABLE ") + name +
                                " (k INT64, " + (name[0] == 'r' ? "a" : "b") +
                                " INT64, pad CHAR(48))")
                     .ok());
      Relation rel((*db->GetTable(name))->schema());
      for (int64_t i = 0; i < rows; ++i) {
        rel.Add({i % 4000, i % 7, "pad" + std::to_string(i)});
      }
      MMDB_CHECK(db->BulkLoad(name, std::move(rel)).ok());
    }
    return db;
  };
  auto sorted_rows = [](const Relation& rel) {
    std::vector<Row> rows = rel.rows();
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  std::unique_ptr<Database> reference = open(Database::Options().memory_pages);
  for (int64_t grant : {16, 4, 2}) {
    std::unique_ptr<Database> db = open(grant);
    for (const char* sql : queries) {
      SCOPED_TRACE(std::string(sql) + " at " + std::to_string(grant));
      auto want = reference->ExecuteSql(sql);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const int64_t spilled_before =
          db->metrics()->Get("exec.join.spilled_partitions");
      auto got = db->ExecuteSql(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const bool spilled =
          db->metrics()->Get("exec.join.spilled_partitions") > spilled_before;
      const bool other_algorithm =
          got->plan_text.find("hybrid-hash") == std::string::npos;
      EXPECT_TRUE(spilled || other_algorithm) << got->plan_text;
      EXPECT_GT(got->relation.num_tuples(), 0);
      EXPECT_EQ(sorted_rows(got->relation), sorted_rows(want->relation));
    }
  }
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
// An INSERT whose B+-tree insert fails on a later row keeps the rows
// before it, so it must still retire the cached results that read the
// table.
TEST(DatabaseReuseTest, PartlyAppliedInsertInvalidatesCachedResults) {
  Database::Options opts;
  opts.buffer_pool_pages = 1;  // a leaf split needs a second frame
  opts.reuse_cache_bytes = 1 << 20;
  opts.reuse_min_cost_seconds = 0;
  auto open = [](Database* db) {
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE t (id INT64, v INT64)").ok());
    ASSERT_TRUE(db->CreateIndex("t", "id", Database::IndexType::kBTree).ok());
  };
  auto row = [](int64_t id) {
    return "(" + std::to_string(id) + ", 1)";
  };
  // The first row whose B+-tree insert fails.
  int64_t fails_at = 0;
  {
    Database probe(opts);
    open(&probe);
    while (probe.ExecuteSql("INSERT INTO t VALUES " + row(fails_at)).ok()) {
      ASSERT_LT(++fails_at, 100000);
    }
  }
  ASSERT_GT(fails_at, 1);
  Database db(opts);
  open(&db);
  for (int64_t id = 0; id + 1 < fails_at; ++id) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES " + row(id)).ok());
  }
  const std::string select = "SELECT id FROM t WHERE v = 1";
  ASSERT_TRUE(db.ExecuteSql(select).ok());
  StatusOr<Database::SqlResult> warm = db.ExecuteSql(select);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(db.reuse_cache()->stats().hits, 0);  // served from the cache
  EXPECT_EQ(warm->relation.num_tuples(), fails_at - 1);
  // Row fails_at - 1 goes in, then row fails_at goes in too and its index
  // insert fails, which drops the index.
  EXPECT_FALSE(db.ExecuteSql("INSERT INTO t VALUES " + row(fails_at - 1) +
                             ", " + row(fails_at))
                   .ok());
  StatusOr<Database::SqlResult> after = db.ExecuteSql(select);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->relation.num_tuples(), fails_at + 1);
}

/// Loads fact(id, grp, bal), with grp = id % 10 and bal = id, and
/// dim(grp, name) with one row per grp.
void LoadFactAndDim(Database* db) {
  ASSERT_TRUE(
      db->ExecuteSql("CREATE TABLE fact (id INT64, grp INT64, bal DOUBLE)")
          .ok());
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE dim (grp INT64, name CHAR(8))")
                  .ok());
  Relation fact((*db->GetTable("fact"))->schema());
  for (int64_t i = 0; i < 2000; ++i) {
    fact.Add({Value{i}, Value{i % 10}, Value{double(i)}});
  }
  ASSERT_TRUE(db->BulkLoad("fact", std::move(fact)).ok());
  Relation dim((*db->GetTable("dim"))->schema());
  for (int64_t g = 0; g < 10; ++g) {
    dim.Add({Value{g}, Value{"g" + std::to_string(g)}});
  }
  ASSERT_TRUE(db->BulkLoad("dim", std::move(dim)).ok());
}

std::string FactDimJoin(int64_t min_bal) {
  return "SELECT id, name FROM fact, dim WHERE fact.grp = dim.grp AND "
         "bal >= " + std::to_string(min_bal) + ".0";
}

// The in-memory hybrid join publishes its exec.join.* figures whether the
// reuse cache builds its table, serves it or is off. A build served from
// the cache counts no build tuples.
TEST(DatabaseReuseTest, JoinCountersMatchWithTheCacheOnAndOff) {
  Database::Options cached_opts;
  cached_opts.reuse_cache_bytes = 8 << 20;
  cached_opts.reuse_min_cost_seconds = 0;
  cached_opts.reuse_plan_discounts = false;  // the same plans as uncached
  Database cached(cached_opts);
  Database plain;
  for (Database* db : {&cached, &plain}) {
    LoadFactAndDim(db);
    // The second join's probe filter differs, so it misses the first's
    // results and serves the first's build of dim.
    for (int64_t min_bal : {100, 1500}) {
      auto result = db->ExecuteSql(FactDimJoin(min_bal));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  ASSERT_EQ(cached.reuse_cache()->stats().build_hits, 1);
  for (const char* name : {"exec.join.runs", "exec.join.probe_tuples",
                           "exec.join.output_tuples"}) {
    EXPECT_GT(plain.metrics()->Get(name), 0) << name;
    EXPECT_EQ(cached.metrics()->Get(name), plain.metrics()->Get(name))
        << name;
  }
  EXPECT_EQ(plain.metrics()->Get("exec.join.build_tuples"), 20);
  EXPECT_EQ(cached.metrics()->Get("exec.join.build_tuples"), 10);
}

// htap_mixed in miniature: fact is UPDATEd between reads and dim is never
// written. Nodes over fact are declined before they run, so nothing new is
// installed over it, neither a result nor a build of fact, while the join
// keeps serving its build of dim; one read with no write before it is
// admitted again.
TEST(DatabaseReuseTest, WrittenTablesBypassTheCacheAndUnwrittenBuildsServe) {
  Database::Options opts;
  opts.reuse_cache_bytes = 8 << 20;
  opts.reuse_min_cost_seconds = 0;
  // Plans priced without the cache's discounts keep their build sides.
  opts.reuse_plan_discounts = false;
  Database db(opts);
  Database plain;
  LoadFactAndDim(&db);
  LoadFactAndDim(&plain);
  ReuseCache* cache = db.reuse_cache();
  auto select = [&](const std::string& sql) {
    auto got = db.ExecuteSql("EXPLAIN ANALYZE " + sql);
    auto want = plain.ExecuteSql(sql);
    EXPECT_TRUE(got.ok() && want.ok()) << sql;
    if (!got.ok() || !want.ok()) return std::string();
    EXPECT_EQ(got->relation.num_tuples(), want->relation.num_tuples());
    std::multiset<std::string> a, b;
    for (const Row& row : got->relation.rows()) a.insert(RowToString(row));
    for (const Row& row : want->relation.rows()) b.insert(RowToString(row));
    EXPECT_EQ(a, b) << sql;
    return got->plan_text;
  };
  auto update = [&](int64_t id) {
    for (Database* d : {&db, &plain}) {
      ASSERT_TRUE(d->ExecuteSql("UPDATE fact SET bal = -1.0 WHERE id = " +
                                std::to_string(id))
                      .ok());
    }
  };
  const std::string q = FactDimJoin(100);
  // Five rows of fact: the join builds on fact, not dim.
  const std::string q_fact_build =
      "SELECT id, name FROM fact, dim WHERE fact.grp = dim.grp AND id < 5";
  std::string plan = select(q_fact_build);
  ASSERT_NE(plan.find("Join"), std::string::npos) << plan;
  // The first read of either table is admitted: dim's build and the
  // results over fact are installed.
  plan = select(q);
  EXPECT_NE(plan.find("cache=miss"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("cache=bypass"), std::string::npos) << plan;
  const ReuseCache::Stats first = cache->stats();
  ASSERT_GT(first.installs, 1);
  EXPECT_EQ(first.bypassed, 0);

  ReuseCache::Stats last = first;
  for (int64_t id = 200; id < 203; ++id) {
    update(id);
    plan = select(q_fact_build);
    EXPECT_NE(plan.find("cache=bypass"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("cache=hit(build)"), std::string::npos) << plan;
    EXPECT_EQ(cache->stats().installs, first.installs);
    update(id + 100);
    plan = select(q);
    EXPECT_NE(plan.find("cache=bypass"), std::string::npos) << plan;
    EXPECT_NE(plan.find("cache=hit(build)"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("cache=miss"), std::string::npos) << plan;
    const ReuseCache::Stats now = cache->stats();
    EXPECT_EQ(now.installs, first.installs);
    EXPECT_EQ(now.build_hits, last.build_hits + 1);
    EXPECT_GT(now.bypassed, last.bypassed);
    last = now;
  }

  // A read with no write before it is admitted again, and the next serves
  // what it installed.
  plan = select(q);
  EXPECT_EQ(plan.find("cache=bypass"), std::string::npos) << plan;
  EXPECT_GT(cache->stats().installs, first.installs);
  EXPECT_EQ(cache->stats().bypassed, last.bypassed);
  plan = select(q);
  EXPECT_NE(plan.find("cache=hit"), std::string::npos) << plan;
}

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
