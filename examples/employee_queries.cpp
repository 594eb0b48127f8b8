// The paper's §2 motivating queries, run against both access methods:
//
//   retrieve (emp.salary) where emp.name = "jones..."     (random access)
//   retrieve (emp.salary, emp.name) where emp.name = "j*" (sequential)
//
// Demonstrates the AVL vs B+-tree trade-off: we build both indexes on the
// same relation, run both query shapes through SQL, print each plan's
// IndexScan, and report page faults alongside the §2 cost model's
// prediction for the configured memory size.
//
//   $ ./build/examples/employee_queries

#include <cstdio>
#include <string>

#include "cost/access_cost.h"
#include "db/database.h"
#include "storage/datagen.h"

using namespace mmdb;  // NOLINT — example brevity

namespace {

/// Runs one SELECT and prints its plan.
Database::SqlResult Select(Database* db, const std::string& sql) {
  StatusOr<Database::SqlResult> result = db->ExecuteSql(sql);
  MMDB_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  std::printf("%s\n%s", sql.c_str(), result->plan_text.c_str());
  return std::move(*result);
}

}  // namespace

int main() {
  constexpr int64_t kEmployees = 100'000;
  Database::Options opts;
  opts.buffer_pool_pages = 512;  // deliberately small: the DB won't all fit
  Database db(opts);

  Relation employees = MakeEmployeeRelation(kEmployees, 64, /*seed=*/3);
  MMDB_CHECK(db.CreateTable("emp", employees.schema()).ok());
  MMDB_CHECK(db.BulkLoad("emp", std::move(employees)).ok());

  MMDB_CHECK(db.CreateIndex("emp", "name", Database::IndexType::kAvl).ok());
  // A second index must differ in column; use emp_id for the B+-tree and
  // name for the AVL so both query shapes are exercised.
  MMDB_CHECK(
      db.CreateIndex("emp", "emp_id", Database::IndexType::kBTree).ok());

  // What does the §2 model say for this configuration?
  AccessModelParams model;
  model.num_tuples = kEmployees;
  model.tuple_width = 64;
  model.key_width = 20;
  std::printf("§2 model: AVL pays off only above H = %.2f of the database "
              "in memory (Z=%.0f, Y=%.2f)\n\n",
              BreakEvenH(model), model.z, model.y);

  // ---- Case 1: random access by key ------------------------------------
  // Find a real "jones" first (names carry random ids), then point-look it
  // up — the paper's `emp.name = "Jones"` query. The AVL prefix scan
  // returns names in key order.
  Database::SqlResult joneses =
      Select(&db, "SELECT name FROM emp WHERE name LIKE 'jones%'");
  MMDB_CHECK(joneses.relation.num_tuples() > 0);
  const std::string some_jones =
      std::get<std::string>(joneses.relation.rows()[0][0]);
  Database::SqlResult by_name =
      Select(&db, "SELECT * FROM emp WHERE name = '" + some_jones + "'");
  MMDB_CHECK(by_name.relation.num_tuples() > 0);
  std::printf("name lookup (%s): %s\n\n", some_jones.c_str(),
              RowToString(by_name.relation.rows()[0]).c_str());
  Database::SqlResult by_id =
      Select(&db, "SELECT * FROM emp WHERE emp_id = 777");
  MMDB_CHECK(by_id.relation.num_tuples() == 1);
  std::printf("id lookup:   %s\n\n",
              RowToString(by_id.relation.rows()[0]).c_str());

  // ---- Case 2: sequential access, the "J*" prefix query ---------------
  Database::SqlResult j_star =
      Select(&db, "SELECT COUNT(*) AS n, AVG(salary) AS avg_salary FROM emp "
                  "WHERE name LIKE 'j%'");
  MMDB_CHECK(j_star.relation.num_tuples() == 1);
  std::printf("emp.name = \"j*\": %s (employees, avg salary)\n",
              RowToString(j_star.relation.rows()[0]).c_str());

  std::printf("\nbuffer pool: %lld faults / %lld fetches\n",
              static_cast<long long>(db.buffer_pool()->stats().faults),
              static_cast<long long>(db.buffer_pool()->stats().fetches));
  std::printf("simulated cost: %s\n", db.clock()->DebugString().c_str());
  return 0;
}
