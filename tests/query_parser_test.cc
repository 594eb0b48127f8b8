#include "db/query_parser.h"

#include <gtest/gtest.h>

#include "db/database.h"

namespace mmdb {
namespace {

/// Database-level SQL tests: parse + execute end to end.
class SqlTest : public ::testing::Test {
 protected:
  SqlTest() {
    Exec("CREATE TABLE emp (emp_id INT64, name CHAR(20), dept INT64, "
         "salary DOUBLE)");
    Exec("CREATE TABLE dept (dept_id INT64, dname CHAR(12))");
    for (int64_t d = 0; d < 3; ++d) {
      Exec("INSERT INTO dept VALUES (" + std::to_string(d) + ", 'dept" +
           std::to_string(d) + "')");
    }
    for (int64_t i = 0; i < 60; ++i) {
      Exec("INSERT INTO emp VALUES (" + std::to_string(i) + ", 'emp" +
           std::to_string(i) + "', " + std::to_string(i % 3) + ", " +
           std::to_string(1000 + i * 10) + ")");
    }
  }

  Database::SqlResult Exec(const std::string& sql) {
    auto result = db_.ExecuteSql(sql);
    MMDB_CHECK_MSG(result.ok(), (sql + ": " + result.status().ToString()).c_str());
    return std::move(*result);
  }

  Database db_;
};

TEST_F(SqlTest, CreateAndInsertCounts) {
  auto r = Exec("INSERT INTO dept VALUES (7, 'extra'), (8, 'more')");
  EXPECT_EQ(r.rows_affected, 2);
  auto all = Exec("SELECT * FROM dept");
  EXPECT_EQ(all.relation.num_tuples(), 5);
}

TEST_F(SqlTest, SelectStarAndProjection) {
  auto star = Exec("SELECT * FROM emp");
  EXPECT_EQ(star.relation.num_tuples(), 60);
  EXPECT_EQ(star.relation.schema().num_columns(), 4);
  auto proj = Exec("SELECT name, salary FROM emp");
  EXPECT_EQ(proj.relation.schema().num_columns(), 2);
  EXPECT_EQ(proj.relation.schema().column(0).name, "name");
}

TEST_F(SqlTest, WhereComparisons) {
  EXPECT_EQ(Exec("SELECT emp_id FROM emp WHERE salary > 1500")
                .relation.num_tuples(),
            9);  // 1510..1590
  // salary >= 1500 selects ids 50..59; of those, dept == 0 means id % 3 == 0:
  // ids 51, 54, 57.
  EXPECT_EQ(Exec("SELECT emp_id FROM emp WHERE salary >= 1500 AND dept = 0")
                .relation.num_tuples(),
            3);
  EXPECT_EQ(Exec("SELECT emp_id FROM emp WHERE emp_id != 0")
                .relation.num_tuples(),
            59);
}

TEST_F(SqlTest, LikePrefix) {
  Exec("INSERT INTO emp VALUES (100, 'jones_a', 0, 2000.0), "
       "(101, 'jones_b', 1, 2100.0)");
  auto r = Exec("SELECT name FROM emp WHERE name LIKE 'jones%'");
  EXPECT_EQ(r.relation.num_tuples(), 2);
}

TEST_F(SqlTest, JoinViaWhere) {
  auto r = Exec(
      "SELECT emp.name, dept.dname FROM emp, dept "
      "WHERE emp.dept = dept.dept_id AND salary < 1050");
  EXPECT_EQ(r.relation.num_tuples(), 5);  // ids 0..4
  EXPECT_EQ(r.relation.schema().num_columns(), 2);
}

TEST_F(SqlTest, UnqualifiedColumnsResolveAcrossTables) {
  auto r = Exec(
      "SELECT name, dname FROM emp, dept WHERE dept = dept_id");
  EXPECT_EQ(r.relation.num_tuples(), 60);
}

TEST_F(SqlTest, GroupByAggregates) {
  auto r = Exec(
      "SELECT dept, COUNT(*), AVG(salary), MIN(salary), MAX(salary) "
      "FROM emp GROUP BY dept");
  ASSERT_EQ(r.relation.num_tuples(), 3);
  for (const Row& row : r.relation.rows()) {
    EXPECT_EQ(std::get<int64_t>(row[1]), 20);  // 60 emps / 3 depts
    EXPECT_GT(std::get<double>(row[2]), 1000);
  }
}

TEST_F(SqlTest, GlobalAggregateWithoutGroupBy) {
  auto r = Exec("SELECT COUNT(*), SUM(salary) FROM emp");
  ASSERT_EQ(r.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<int64_t>(r.relation.rows()[0][0]), 60);
}

TEST_F(SqlTest, AggregateWithAlias) {
  auto r = Exec("SELECT dept, AVG(salary) AS pay FROM emp GROUP BY dept");
  auto idx = r.relation.schema().ColumnIndex("pay");
  EXPECT_TRUE(idx.ok());
}

TEST_F(SqlTest, SelectDistinct) {
  auto r = Exec("SELECT DISTINCT dept FROM emp");
  EXPECT_EQ(r.relation.num_tuples(), 3);
}

TEST_F(SqlTest, ExplainReturnsPlanOnly) {
  auto r = Exec(
      "EXPLAIN SELECT name FROM emp, dept WHERE emp.dept = dept.dept_id");
  EXPECT_EQ(r.relation.num_tuples(), 0);
  EXPECT_NE(r.plan_text.find("Join[hybrid-hash]"), std::string::npos);
}

TEST_F(SqlTest, IntLiteralCoercesToDoubleColumn) {
  auto r = Exec("INSERT INTO emp VALUES (200, 'x', 0, 5000)");
  EXPECT_EQ(r.rows_affected, 1);
}

TEST_F(SqlTest, ErrorsAreDiagnosed) {
  EXPECT_FALSE(db_.ExecuteSql("SELEC name FROM emp").ok());
  EXPECT_FALSE(db_.ExecuteSql("SELECT name FROM nope").ok());
  EXPECT_FALSE(db_.ExecuteSql("SELECT bogus FROM emp").ok());
  EXPECT_FALSE(db_.ExecuteSql("SELECT name FROM emp WHERE name LIKE '%x'")
                   .ok());  // only prefix patterns
  EXPECT_FALSE(db_.ExecuteSql("SELECT name FROM emp GROUP BY dept").ok());
  EXPECT_FALSE(
      db_.ExecuteSql("SELECT dept, salary, COUNT(*) FROM emp GROUP BY dept")
          .ok());  // salary not grouped
  EXPECT_FALSE(db_.ExecuteSql("SELECT SUM(*) FROM emp").ok());
  EXPECT_FALSE(db_.ExecuteSql("CREATE TABLE t (x BLOB)").ok());
  EXPECT_FALSE(db_.ExecuteSql("SELECT name FROM emp extra_garbage").ok());
}

TEST_F(SqlTest, OutOfRangeIntegerLiteralIsAnErrorNotACrash) {
  // Regression: this used to abort via an uncaught std::out_of_range from
  // std::stoll. It must come back as an error Status.
  auto r = db_.ExecuteSql(
      "SELECT emp_id FROM emp WHERE emp_id = 99999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
      << r.status().ToString();
  // INT64_MAX itself still parses.
  EXPECT_TRUE(
      db_.ExecuteSql(
             "SELECT emp_id FROM emp WHERE emp_id = 9223372036854775807")
          .ok());
}

TEST_F(SqlTest, OutOfRangeDoubleLiteralIsAnErrorNotACrash) {
  // Same crash via std::stod: a mantissa beyond double range overflowed.
  const std::string huge(400, '9');
  auto r =
      db_.ExecuteSql("SELECT emp_id FROM emp WHERE salary = " + huge + ".0");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SqlTest, MultiDotNumericLiteralIsRejected) {
  auto r = db_.ExecuteSql("SELECT emp_id FROM emp WHERE salary = 1.2.3");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("malformed numeric literal"),
            std::string::npos)
      << r.status().ToString();
  // A single trailing dot is valid (strtod-style), as in standard SQL.
  EXPECT_TRUE(
      db_.ExecuteSql("SELECT emp_id FROM emp WHERE salary = 1.").ok());
}

TEST_F(SqlTest, ExplainAnalyzeAnnotatesEveryNodeAndReturnsRows) {
  Exec("CREATE TABLE loc (dept_id INT64, city CHAR(12))");
  for (int64_t d = 0; d < 3; ++d) {
    Exec("INSERT INTO loc VALUES (" + std::to_string(d) + ", 'city" +
         std::to_string(d) + "')");
  }
  // Two joins: emp ⋈ dept ⋈ loc.
  auto r = Exec(
      "EXPLAIN ANALYZE SELECT name, dname, city FROM emp, dept, loc "
      "WHERE emp.dept = dept.dept_id AND dept.dept_id = loc.dept_id");
  EXPECT_EQ(r.relation.num_tuples(), 60);  // rows really executed
  // Every plan node (2 joins + 3 scans + project) carries actuals.
  size_t annotations = 0;
  for (size_t at = r.plan_text.find("(actual rows="); at != std::string::npos;
       at = r.plan_text.find("(actual rows=", at + 1)) {
    ++annotations;
  }
  EXPECT_GE(annotations, 6u) << r.plan_text;
  EXPECT_NE(r.plan_text.find("comps="), std::string::npos) << r.plan_text;
  EXPECT_NE(r.plan_text.find("reads="), std::string::npos) << r.plan_text;
  EXPECT_NE(r.plan_text.find("spill="), std::string::npos) << r.plan_text;
  EXPECT_NE(r.plan_text.find("self="), std::string::npos) << r.plan_text;
}

TEST_F(SqlTest, ExplainAnalyzeAggregateReportsGroups) {
  auto r = Exec(
      "EXPLAIN ANALYZE SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  EXPECT_EQ(r.relation.num_tuples(), 3);
  EXPECT_NE(r.plan_text.find("actual groups=3"), std::string::npos)
      << r.plan_text;
}

TEST_F(SqlTest, ExplainAnalyzeRequiresSelect) {
  EXPECT_FALSE(db_.ExecuteSql("EXPLAIN ANALYZE").ok());
  EXPECT_FALSE(
      db_.ExecuteSql("EXPLAIN ANALYZE INSERT INTO dept VALUES (9, 'x')").ok());
}

TEST_F(SqlTest, MetricsJsonReflectsExecutedWork) {
  Exec("SELECT name FROM emp, dept WHERE emp.dept = dept.dept_id");
  const std::string json = db_.MetricsJson();
  EXPECT_NE(json.find("\"exec.join.runs\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buffer_pool.fetches\":"), std::string::npos) << json;
  EXPECT_GT(db_.metrics()->Get("exec.join.probe_tuples"), 0);
}

TEST_F(SqlTest, KeywordsAreCaseInsensitive) {
  auto r = Exec("select Name from EMP where SALARY >= 1590.0");
  EXPECT_EQ(r.relation.num_tuples(), 1);
}

// Transaction control parses, so a session can tell it from a statement by
// the one parse; a bare Database refuses it as it refused the unknown
// keyword before.
TEST_F(SqlTest, TransactionControlParsesAndDatabaseRefusesIt) {
  const std::pair<const char*, ParsedStatement::Kind> cases[] = {
      {"BEGIN", ParsedStatement::Kind::kBegin},
      {"begin;", ParsedStatement::Kind::kBegin},
      {"COMMIT", ParsedStatement::Kind::kCommit},
      {"ROLLBACK", ParsedStatement::Kind::kRollback},
      {"abort", ParsedStatement::Kind::kRollback},
  };
  for (const auto& [sql, kind] : cases) {
    auto parsed = db_.PrepareSql(sql);
    ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, kind) << sql;
    EXPECT_FALSE(parsed->is_write()) << sql;
    EXPECT_EQ(db_.ExecuteSql(sql).status().code(),
              StatusCode::kInvalidArgument)
        << sql;
  }
  EXPECT_FALSE(db_.PrepareSql("BEGIN TRANSACTION").ok());
  EXPECT_FALSE(db_.PrepareSql("COMMITTED").ok());
}

TEST_F(SqlTest, InsertRefusesTrailingText) {
  EXPECT_EQ(db_.ExecuteSql("INSERT INTO dept VALUES (3, 'a'), (4, 'b') "
                           "garbage here;")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Exec("SELECT * FROM dept").relation.num_tuples(), 3);
  EXPECT_EQ(Exec("INSERT INTO dept VALUES (3, 'a');").rows_affected, 1);
}

TEST_F(SqlTest, CreateTableRefusesTrailingText) {
  EXPECT_EQ(db_.ExecuteSql("CREATE TABLE acct (id INT64, balance DOUBLE) "
                           "trailing junk")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.GetTable("acct").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db_.ExecuteSql("CREATE TABLE acct (id INT64, balance DOUBLE);")
                  .ok());
}

TEST_F(SqlTest, SelectRefusesColumnOfTableNotInFrom) {
  // The predicate names dept, which the statement does not read: it must
  // be refused, not dropped (which returned every emp row).
  EXPECT_EQ(
      db_.ExecuteSql("SELECT emp_id, salary FROM emp WHERE dept.dept_id = 3")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.ExecuteSql("SELECT dept.dname FROM emp").status().code(),
            StatusCode::kInvalidArgument);
  // A qualified column the named table does not have.
  EXPECT_EQ(db_.ExecuteSql("SELECT emp_id FROM emp WHERE emp.bogus = 3")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(SqlTest, UpdateRefusesColumnOfTableNotUpdated) {
  EXPECT_EQ(
      db_.ExecuteSql("UPDATE emp SET salary = 7.0 WHERE dept.dept_id = 3")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  auto r = Exec("SELECT salary FROM emp WHERE emp_id = 3");
  ASSERT_EQ(r.relation.num_tuples(), 1);
  EXPECT_EQ(std::get<double>(r.relation.RowAt(0)[0]), 1030.0);
}

TEST_F(SqlTest, StarAggregateOverJoin) {
  auto r = Exec(
      "SELECT dname, COUNT(*) FROM emp, dept "
      "WHERE emp.dept = dept.dept_id GROUP BY dname");
  EXPECT_EQ(r.relation.num_tuples(), 3);
}

}  // namespace
}  // namespace mmdb
