// Quickstart: create tables, load data, index, and run an optimized join
// query, all through SQL on the public Database facade.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "common/random.h"
#include "db/database.h"

using namespace mmdb;  // NOLINT — example brevity

namespace {

Database::SqlResult Run(Database* db, const std::string& sql) {
  StatusOr<Database::SqlResult> result = db->ExecuteSql(sql);
  MMDB_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(*result);
}

}  // namespace

int main() {
  Database db;

  // ---- 1. Schema + data ----------------------------------------------
  Run(&db, "CREATE TABLE dept (dept_id INT64, dept_name CHAR(16))");
  Run(&db, "CREATE TABLE emp (emp_id INT64, name CHAR(20), dept INT64, "
           "salary DOUBLE)");
  Run(&db, "INSERT INTO dept VALUES (0, 'engineering'), (1, 'sales'), "
           "(2, 'support'), (3, 'finance')");
  Random rng(7);
  std::string insert = "INSERT INTO emp VALUES ";
  for (int64_t i = 0; i < 1000; ++i) {
    const int64_t dept = static_cast<int64_t>(rng.Uniform(4));
    char row[96];
    std::snprintf(row, sizeof(row), "%s(%lld, 'emp_%lld', %lld, %.2f)",
                  i == 0 ? "" : ", ", static_cast<long long>(i),
                  static_cast<long long>(i), static_cast<long long>(dept),
                  40000.0 + rng.NextDouble() * 60000.0);
    insert += row;
  }
  Run(&db, insert);

  // ---- 2. Point access through an index (§2) ---------------------------
  // There is no CREATE INDEX in the dialect; kAuto picks AVL or B+-tree
  // by the §2 cost model.
  MMDB_CHECK(db.CreateIndex("emp", "emp_id", Database::IndexType::kAuto).ok());
  Database::SqlResult point = Run(&db, "SELECT * FROM emp WHERE emp_id = 42");
  MMDB_CHECK(point.relation.num_tuples() == 1);
  std::printf("emp 42: %s\nplan:\n%s",
              RowToString(point.relation.rows()[0]).c_str(),
              point.plan_text.c_str());

  // ---- 3. A join query through the optimizer (§3/§4) -------------------
  const std::string join =
      "SELECT emp.name, dept.dept_name, emp.salary FROM emp, dept "
      "WHERE emp.dept = dept.dept_id AND emp.salary > 80000.0";
  std::printf("plan:\n%s", Run(&db, "EXPLAIN " + join).plan_text.c_str());
  Database::SqlResult earners = Run(&db, join);
  std::printf("high earners: %lld rows; first: %s\n",
              static_cast<long long>(earners.relation.num_tuples()),
              earners.relation.num_tuples() > 0
                  ? RowToString(earners.relation.rows()[0]).c_str()
                  : "(none)");

  // ---- 4. Aggregation (§3.9) -------------------------------------------
  Database::SqlResult by_dept =
      Run(&db, "SELECT dept, AVG(salary) AS avg_salary, COUNT(*) AS n "
               "FROM emp GROUP BY dept");
  for (const Row& row : by_dept.relation.rows()) {
    std::printf("dept %s\n", RowToString(row).c_str());
  }

  std::printf("simulated cost so far: %s\n",
              db.clock()->DebugString().c_str());
  return 0;
}
