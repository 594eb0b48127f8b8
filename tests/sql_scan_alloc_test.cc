// Allocation accounting for SQL scans (DESIGN.md §14): a Filter over a
// resident table reads the table in place and passes on references to its
// survivors, so a one-survivor query over 100k rows allocates a bounded
// number of blocks — not one (or more) per table row, which a per-scan
// table copy costs. GROUP BY, DISTINCT and the in-memory hash join read
// those references in place too, so they allocate for what they produce
// (groups, distinct rows, join output and build), not per survivor.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "db/database.h"

// Counts every operator new in this binary; the test reads deltas around
// one statement. GCC assumes the replaced operator new pairs with the
// replaced delete and warns about the malloc/free mix inside them; the
// pairing here is correct.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer) must come from
// malloc too, or a sanitizer's own operator new would meet free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mmdb {
namespace {

constexpr int64_t kRows = 100000;

/// t(id, grp, bal) with kRows rows; grp = id % 1000, so `id = k` has one
/// survivor and `grp = g` has kRows / 1000.
void LoadTable(Database* db) {
  const Schema schema({Column::Int64("id"), Column::Int64("grp"),
                       Column::Double("bal")});
  ASSERT_TRUE(db->CreateTable("t", schema).ok());
  Relation rel(schema);
  for (int64_t i = 0; i < kRows; ++i) {
    rel.Add({Value{i}, Value{i % 1000}, Value{double(i)}});
  }
  ASSERT_TRUE(db->BulkLoad("t", std::move(rel)).ok());
}

/// u(k, w) with kBuildRows rows, k = 0..kBuildRows-1: joined on t.grp it
/// matches kBuildRows / 1000 of t's rows.
constexpr int64_t kBuildRows = 50;

void LoadBuildTable(Database* db) {
  const Schema schema({Column::Int64("k"), Column::Int64("w")});
  ASSERT_TRUE(db->CreateTable("u", schema).ok());
  Relation rel(schema);
  for (int64_t i = 0; i < kBuildRows; ++i) rel.Add({Value{i}, Value{2 * i}});
  ASSERT_TRUE(db->BulkLoad("u", std::move(rel)).ok());
}

/// `id < 30000` keeps 30% of t: kSurvivors rows in kGroups groups of grp.
constexpr int64_t kSurvivors = 30000;
constexpr int64_t kGroups = 1000;

/// Allocations made by one SQL statement, which must return `want_rows`.
uint64_t AllocsFor(Database* db, const std::string& sql, int64_t want_rows) {
  const uint64_t before = g_allocs.load();
  auto result = db->ExecuteSql(sql);
  const uint64_t allocs = g_allocs.load() - before;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    EXPECT_EQ(result->relation.num_tuples(), want_rows);
  }
  return allocs;
}

TEST(SqlScanAllocTest, OneSurvivorFilterAllocatesForSurvivorsNotTable) {
  Database db;
  LoadTable(&db);
  // Warm-up: first-use allocations (metric names, lazy statics) are not
  // what is measured.
  AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 7", 1);

  const uint64_t one =
      AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 4242", 1);
  // Parse, plan, metrics and the morsel buffers cost a bounded amount; a
  // table copy costs at least one block per row.
  EXPECT_LT(one, uint64_t(kRows / 20)) << "allocations scale with the table";

  // And the count grows with the survivors, not the table: 100 survivors
  // cost at most a few blocks each on top of the one-survivor statement.
  const uint64_t hundred =
      AllocsFor(&db, "SELECT id, bal FROM t WHERE grp = 42", kRows / 1000);
  EXPECT_LT(hundred, one + 10 * uint64_t(kRows / 1000));
}

TEST(SqlScanAllocTest, WholeTableSelectAllocatesPerBlockNotPerRow) {
  // Tuples are fixed-width records in blocks, so copying the whole table
  // into the result allocates per block of records, not per row.
  Database db;
  LoadTable(&db);
  AllocsFor(&db, "SELECT id, bal FROM t", kRows);
  const uint64_t whole = AllocsFor(&db, "SELECT id, bal FROM t", kRows);
  EXPECT_LT(whole, uint64_t(kRows / 100)) << "allocations scale with rows";
}

// The pipeline-breaker cases below compare against the one-survivor
// statement (parse, plan, metrics, morsel buffers) and allow a few blocks
// per row they produce — far below one block per survivor, which copying
// the survivors into the breaker costs.

TEST(SqlScanAllocTest, GroupByAllocatesForGroupsNotSurvivors) {
  Database db;
  LoadTable(&db);
  AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 7", 1);
  const uint64_t one =
      AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 4242", 1);
  const std::string sql =
      "SELECT grp, SUM(bal) FROM t WHERE id < " + std::to_string(kSurvivors) +
      " GROUP BY grp";
  AllocsFor(&db, sql, kGroups);
  const uint64_t grouped = AllocsFor(&db, sql, kGroups);
  EXPECT_LT(grouped, one + 8 * uint64_t(kGroups))
      << "allocations scale with the survivors";
}

TEST(SqlScanAllocTest, JoinProbeAllocatesForOutputAndBuildNotSurvivors) {
  Database db;
  LoadTable(&db);
  LoadBuildTable(&db);
  AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 7", 1);
  const uint64_t one =
      AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 4242", 1);
  const std::string sql =
      "SELECT t.id, u.w FROM t, u WHERE t.grp = u.k AND t.id < " +
      std::to_string(kSurvivors);
  const int64_t output = kSurvivors * kBuildRows / 1000;
  auto plan = db.ExecuteSql("EXPLAIN " + sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->plan_text.find("hybrid-hash"), std::string::npos)
      << plan->plan_text;
  AllocsFor(&db, sql, output);
  const uint64_t joined = AllocsFor(&db, sql, output);
  EXPECT_LT(joined, one + 4 * uint64_t(output + kBuildRows))
      << "allocations scale with the probe survivors";
}

// The join's build table holds its record addresses and chain links in a
// few vectors grown by doubling: a build of kBuildKeys distinct keys makes
// O(log n) allocations for its table, not one or more per key.
TEST(SqlScanAllocTest, JoinBuildAllocatesPerTableNotPerKey) {
  constexpr int64_t kBuildKeys = 10000;
  Database db;
  LoadTable(&db);
  const Schema schema({Column::Int64("k"), Column::Int64("w")});
  ASSERT_TRUE(db.CreateTable("v", schema).ok());
  Relation rel(schema);
  for (int64_t i = 0; i < kBuildKeys; ++i) rel.Add({Value{i}, Value{i % 7}});
  ASSERT_TRUE(db.BulkLoad("v", std::move(rel)).ok());
  AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 7", 1);
  const uint64_t one =
      AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 4242", 1);
  // Every t row with id < kBuildKeys matches one v row; the build is v.
  const std::string sql = "SELECT t.id, v.w FROM t, v WHERE t.id = v.k";
  auto plan = db.ExecuteSql("EXPLAIN " + sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->plan_text.find("hybrid-hash"), std::string::npos)
      << plan->plan_text;
  AllocsFor(&db, sql, kBuildKeys);
  const uint64_t joined = AllocsFor(&db, sql, kBuildKeys);
  // The build copy and the output take a block per 1024 records each; the
  // table's vectors regrow about log2(kBuildKeys) times each.
  EXPECT_LT(joined, one + 200) << "allocations scale with the build keys";
}

TEST(SqlScanAllocTest, DistinctAllocatesForDistinctRows) {
  Database db;
  LoadTable(&db);
  AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 7", 1);
  const uint64_t one =
      AllocsFor(&db, "SELECT id, bal FROM t WHERE id = 4242", 1);
  const std::string sql = "SELECT DISTINCT grp FROM t WHERE id < " +
                          std::to_string(kSurvivors);
  AllocsFor(&db, sql, kGroups);
  const uint64_t distinct = AllocsFor(&db, sql, kGroups);
  EXPECT_LT(distinct, one + 8 * uint64_t(kGroups))
      << "allocations scale with the survivors";
}

// A write statement is applied from the parsed statement itself: a copy
// of a 1000-row INSERT costs at least one block per row on top of the
// parse, which allocates one block per row (its exact-width Row).
TEST(SqlScanAllocTest, InsertMovesParsedRowsIntoTheTable) {
  constexpr int64_t kInsertRows = 1000;
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE w (id INT64, grp INT64, bal DOUBLE)")
                  .ok());
  auto insert_sql = [](int64_t first) {
    std::string sql = "INSERT INTO w VALUES ";
    for (int64_t i = first; i < first + kInsertRows; ++i) {
      if (i > first) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ", " +
             std::to_string(i) + ".5)";
    }
    return sql;
  };
  AllocsFor(&db, insert_sql(0), 0);  // warm-up
  const std::string sql = insert_sql(kInsertRows);
  const uint64_t allocs = AllocsFor(&db, sql, 0);
  EXPECT_LT(allocs, uint64_t(kInsertRows) * 3 / 2)
      << "the INSERT copies its parsed rows";
}

}  // namespace
}  // namespace mmdb
