// Copy-free scans through SQL (DESIGN.md §14): the executor borrows
// resident tables and reuse-cache results, and copies rows only where the
// plan must own them. These tests pin the observable contract: results
// never alias storage a later write changes, EXPLAIN ANALYZE still traces
// the Scan node, and borrowing readers run clean beside a writer.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "server/server.h"
#include "server/session.h"

namespace mmdb {
namespace {

/// t(id, grp, bal): grp = id % 100, bal = id.
void LoadTable(Database* db, int64_t rows) {
  ASSERT_TRUE(
      db->ExecuteSql("CREATE TABLE t (id INT64, grp INT64, bal DOUBLE)").ok());
  auto table = db->GetTable("t");
  ASSERT_TRUE(table.ok());
  Relation rel((*table)->schema());
  for (int64_t i = 0; i < rows; ++i) {
    rel.Add({Value{i}, Value{i % 100}, Value{double(i)}});
  }
  ASSERT_TRUE(db->BulkLoad("t", std::move(rel)).ok());
}

/// The bal of the row with id `id` in a (id, ..., bal) result.
double BalOf(const Relation& rel, int64_t id) {
  for (const Row& row : rel.rows()) {
    if (std::get<int64_t>(row[0]) == id) return std::get<double>(row.back());
  }
  ADD_FAILURE() << "id " << id << " not in result";
  return -1;
}

/// The "(actual rows=N" figure printed under the first `node` line.
int64_t ActualRowsUnder(const std::string& plan_text, const std::string& node) {
  const size_t at = plan_text.find(node);
  if (at == std::string::npos) return -1;
  const size_t rows = plan_text.find("actual rows=", at);
  if (rows == std::string::npos) return -1;
  return std::stoll(plan_text.substr(rows + 12));
}

TEST(SqlScanTest, BareScanResultIsUnchangedByLaterUpdate) {
  Database db;
  LoadTable(&db, 1000);
  auto all = db.ExecuteSql("SELECT * FROM t");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->relation.num_tuples(), 1000);
  EXPECT_EQ(all->plan_text.find("Filter"), std::string::npos)
      << "the plan root should be the bare scan:\n" << all->plan_text;

  ASSERT_TRUE(db.ExecuteSql("UPDATE t SET bal = -1.0 WHERE id = 5").ok());
  EXPECT_EQ(BalOf(all->relation, 5), 5.0);
  auto again = db.ExecuteSql("SELECT * FROM t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(BalOf(again->relation, 5), -1.0);
}

TEST(SqlScanTest, CacheHitResultsAreUnchangedByLaterUpdate) {
  Database::Options opts;
  opts.reuse_cache_bytes = 32 << 20;
  opts.reuse_min_cost_seconds = 0;
  Database db(opts);
  LoadTable(&db, 2000);
  const std::string q = "SELECT id, bal FROM t WHERE grp = 7";
  auto miss = db.ExecuteSql(q);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  auto hit = db.ExecuteSql("EXPLAIN ANALYZE " + q);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_NE(hit->plan_text.find("cache=hit"), std::string::npos)
      << hit->plan_text;
  // A narrower projection over the same filter: the filter is served from
  // the cache inside the plan (a pinned borrow), the root owns its copy.
  auto inner = db.ExecuteSql("EXPLAIN ANALYZE SELECT bal FROM t WHERE grp = 7");
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  EXPECT_EQ(inner->relation.num_tuples(), 20);
  ASSERT_EQ(miss->relation.num_tuples(), 20);
  ASSERT_EQ(hit->relation.num_tuples(), 20);

  ASSERT_TRUE(db.ExecuteSql("UPDATE t SET bal = -1.0 WHERE id = 107").ok());
  EXPECT_EQ(BalOf(miss->relation, 107), 107.0);
  EXPECT_EQ(BalOf(hit->relation, 107), 107.0);
  int64_t old_bals = 0;
  for (const Row& row : inner->relation.rows()) {
    old_bals += std::get<double>(row[0]) == 107.0 ? 1 : 0;
  }
  EXPECT_EQ(old_bals, 1);
  auto fresh = db.ExecuteSql(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(BalOf(fresh->relation, 107), -1.0);
}

TEST(SqlScanTest, ExplainAnalyzeTracesTheBorrowedScan) {
  Database db;
  LoadTable(&db, 3000);
  auto filtered =
      db.ExecuteSql("EXPLAIN ANALYZE SELECT id FROM t WHERE grp = 3");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_TRUE(filtered->analyzed);
  EXPECT_EQ(filtered->relation.num_tuples(), 30);
  EXPECT_EQ(ActualRowsUnder(filtered->plan_text, "Scan(t)"), 3000)
      << filtered->plan_text;
  auto bare = db.ExecuteSql("EXPLAIN ANALYZE SELECT * FROM t");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->relation.num_tuples(), 3000);
  EXPECT_EQ(ActualRowsUnder(bare->plan_text, "Scan(t)"), 3000)
      << bare->plan_text;
}

// Four snapshot sessions (no table locks: only the shared database latch
// guards their borrowed scans) run filters, bare scans, aggregates and
// cache hits while a writer session point-updates bal. The readers' checks
// depend only on id and grp, which the writer never changes, so every
// answer is exact; the final table must hold the writer's last values.
TEST(SqlScanTest, ConcurrentScansBesideAPointWriter) {
  constexpr int64_t kRows = 2000;
  Database::Options opts;
  opts.reuse_cache_bytes = 1 << 20;
  opts.reuse_min_cost_seconds = 0;
  Database db(opts);
  LoadTable(&db, kRows);
  Server server(&db);
  SessionOptions snap;
  snap.isolation = IsolationLevel::kSnapshot;

  std::atomic<bool> wrong{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    auto session = server.OpenSession(snap);
    ASSERT_TRUE(session.ok());
    readers.emplace_back([&wrong, s = *session, r] {
      for (int i = 0; i < 40 && !wrong.load(); ++i) {
        const int64_t g = (r * 40 + i) % 100;
        auto eq = s->ExecuteSql("SELECT id, grp FROM t WHERE grp = " +
                                std::to_string(g));
        bool ok = eq.ok() && eq->relation.num_tuples() == kRows / 100;
        for (const Row& row : ok ? eq->relation.rows() : std::vector<Row>()) {
          ok = ok && std::get<int64_t>(row[0]) % 100 == g &&
               std::get<int64_t>(row[1]) == g;
        }
        auto all = s->ExecuteSql("SELECT * FROM t");
        ok = ok && all.ok() && all->relation.num_tuples() == kRows;
        auto agg = s->ExecuteSql(
            "SELECT grp, SUM(id) FROM t WHERE grp < 3 GROUP BY grp");
        ok = ok && agg.ok() && agg->relation.num_tuples() == 3;
        for (const Row& row : ok ? agg->relation.rows() : std::vector<Row>()) {
          // ids g, g+100, ..., g+1900: 20 rows summing to 20g + 19000.
          const int64_t grp = std::get<int64_t>(row[0]);
          const Value& sum = row[1];
          const double got = std::holds_alternative<int64_t>(sum)
                                 ? double(std::get<int64_t>(sum))
                                 : std::get<double>(sum);
          ok = ok && got == double(20 * grp + 19000);
        }
        if (!ok) wrong.store(true);
      }
    });
  }
  auto writer = server.OpenSession();
  ASSERT_TRUE(writer.ok());
  for (int64_t k = 0; k < 200; ++k) {
    const int64_t id = (k * 37) % kRows;
    ASSERT_TRUE((*writer)
                    ->ExecuteSql("UPDATE t SET bal = " +
                                 std::to_string(1e6 + double(k)) +
                                 " WHERE id = " + std::to_string(id))
                    .ok());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(wrong.load());

  auto final_rows = db.ExecuteSql("SELECT id, bal FROM t");
  ASSERT_TRUE(final_rows.ok());
  for (int64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(BalOf(final_rows->relation, (k * 37) % kRows), 1e6 + double(k));
  }
}

}  // namespace
}  // namespace mmdb
