// Differential suite for the plan-fingerprint reuse cache (DESIGN.md §15):
// with plan discounts off the cache is an invisible accelerator — cache-on
// and cache-off runs must produce byte-identical rows in identical order,
// across repetitions and across input mutations that force invalidation.
// With discounts on the planner may legitimately reshape the plan, so
// content (multiset) identity is the contract there. A final
// concurrent test drives 8 reader threads through the cache while writers
// invalidate — the TSan preset runs it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/reuse_cache.h"
#include "db/database.h"
#include "optimizer/executor.h"
#include "optimizer/optimizer.h"
#include "storage/datagen.h"

namespace mmdb {
namespace {

std::vector<std::string> RowStrings(const Relation& rel) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(rel.num_tuples()));
  for (const Row& row : rel.rows()) out.push_back(RowToString(row));
  return out;
}

Query RandomJoinQuery(std::mt19937_64* rng, int64_t key_range) {
  Query query;
  query.tables = {"r", "s"};
  query.joins = {{{"r", "key"}, {"s", "key"}}};
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                       CmpOp::kGe, CmpOp::kNe};
  const int num_preds = 1 + static_cast<int>((*rng)() % 3);
  for (int i = 0; i < num_preds; ++i) {
    Predicate pred;
    pred.table = ((*rng)() % 2 == 0) ? "r" : "s";
    pred.column = ((*rng)() % 2 == 0) ? "key" : "payload";
    pred.op = ops[(*rng)() % 5];
    pred.literal = Value{static_cast<int64_t>((*rng)() % (2 * key_range))};
    query.filters.push_back(pred);
  }
  if ((*rng)() % 2 == 0) {
    query.select_columns = {{"r", "key"}, {"s", "payload"}, {"r", "pad"}};
  }
  return query;
}

class ReuseCacheDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ReuseCacheDifferentialTest, TransparentModeIsByteIdenticalAtEveryDop) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);

  GenOptions r_opts;
  r_opts.num_tuples = 600 + static_cast<int64_t>(rng() % 600);
  r_opts.tuple_width = 48;
  r_opts.seed = seed * 2 + 1;
  Relation r = MakeKeyedRelation(r_opts);
  GenOptions s_opts;
  s_opts.num_tuples = 1'500 + static_cast<int64_t>(rng() % 1'500);
  s_opts.tuple_width = 40;
  s_opts.distribution =
      (seed % 2 == 0) ? KeyDistribution::kUniform : KeyDistribution::kZipf;
  s_opts.key_range = r_opts.num_tuples;
  s_opts.seed = seed * 2 + 2;
  Relation s = MakeKeyedRelation(s_opts);

  ReuseCache cache;
  cache.SetEnvTag("difftest");

  // Three repetitions; input mutated between the 2nd and 3rd, forcing
  // invalidation — a stale serve would reproduce the pre-mutation bytes.
  for (int round = 0; round < 3; ++round) {
    if (round == 2) {
      Row extra = r.rows().front();
      extra[0] = Value{static_cast<int64_t>(r_opts.num_tuples / 2)};
      r.Add(std::move(extra));
      cache.InvalidateTable("r");
    }
    Catalog catalog;
    ASSERT_TRUE(catalog.RegisterTable("r", &r).ok());
    ASSERT_TRUE(catalog.RegisterTable("s", &s).ok());
    std::mt19937_64 qrng(seed * 31 + static_cast<uint64_t>(round / 2));
    const Query query = RandomJoinQuery(&qrng, r_opts.num_tuples);

    std::vector<std::string> base_rows;
    bool have_base = false;
    for (int visit = 0; visit < 3; ++visit) {
      OptimizerOptions opts;
      opts.memory_pages = 4096;
      opts.hash_only = true;
      opts.reuse_cache = &cache;
      opts.reuse_cost_discounts = false;  // transparent mode
      // Cache-off twin first, then cache-on (which both installs, on its
      // first visit, and serves, on every later one).
      ExecEnv off_env(4096);
      OptimizerOptions off_opts = opts;
      off_opts.reuse_cache = nullptr;
      auto off = RunQuery(query, catalog, off_opts, &off_env.ctx);
      ASSERT_TRUE(off.ok()) << off.status().ToString();

      ExecEnv on_env(4096);
      on_env.ctx.reuse_cache = &cache;
      auto on = RunQuery(query, catalog, opts, &on_env.ctx);
      ASSERT_TRUE(on.ok()) << on.status().ToString();

      const std::vector<std::string> off_rows = RowStrings(off->relation);
      const std::vector<std::string> on_rows = RowStrings(on->relation);
      EXPECT_EQ(on_rows, off_rows) << "round=" << round << " visit=" << visit;
      if (!have_base) {
        base_rows = off_rows;
        have_base = true;
      } else if (round != 2) {
        EXPECT_EQ(off_rows, base_rows) << "baseline drifted";
      }
    }
  }
  const ReuseCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0) << "suite never exercised a warm serve";
  EXPECT_GT(stats.invalidations, 0);
}

TEST_P(ReuseCacheDifferentialTest, DiscountModeKeepsContentIdentity) {
  // With cost discounts the planner may flip join order or build side for
  // a warm plan, changing row order; the multiset of rows must not change.
  const uint64_t seed = GetParam();
  GenOptions r_opts;
  r_opts.num_tuples = 500;
  r_opts.tuple_width = 48;
  r_opts.seed = seed + 11;
  const Relation r = MakeKeyedRelation(r_opts);
  GenOptions s_opts;
  s_opts.num_tuples = 2'000;
  s_opts.tuple_width = 40;
  s_opts.distribution = KeyDistribution::kUniform;
  s_opts.key_range = 500;
  s_opts.seed = seed + 12;
  const Relation s = MakeKeyedRelation(s_opts);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("r", &r).ok());
  ASSERT_TRUE(catalog.RegisterTable("s", &s).ok());

  std::mt19937_64 qrng(seed * 17 + 3);
  const Query query = RandomJoinQuery(&qrng, 500);

  OptimizerOptions off_opts;
  off_opts.memory_pages = 4096;
  off_opts.hash_only = true;
  ExecEnv off_env(4096);
  auto off = RunQuery(query, catalog, off_opts, &off_env.ctx);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  std::vector<std::string> expected = RowStrings(off->relation);
  std::sort(expected.begin(), expected.end());

  ReuseCache cache;
  cache.SetEnvTag("difftest");
  for (int rep = 0; rep < 3; ++rep) {
    OptimizerOptions opts = off_opts;
    opts.reuse_cache = &cache;
    opts.reuse_cost_discounts = true;
    ExecEnv env(4096);
    env.ctx.reuse_cache = &cache;
    auto on = RunQuery(query, catalog, opts, &env.ctx);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    std::vector<std::string> got = RowStrings(on->relation);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "rep=" << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseCacheDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ReuseCacheSqlDifferential, CacheOnMatchesCacheOffAcrossMutations) {
  // Two databases fed identical statements — one with the cache (in
  // transparent mode so plans match), one without. Every SELECT must
  // return identical bytes; INSERT/UPDATE invalidate automatically.
  Database::Options cached_opts;
  cached_opts.reuse_cache_bytes = 16 << 20;
  cached_opts.reuse_plan_discounts = false;
  Database cached(cached_opts);
  Database plain;

  const std::vector<std::string> ddl = {
      "CREATE TABLE emp (id INT64, dept INT64, pay INT64)",
      "CREATE TABLE dept (dept INT64, name CHAR(12))",
  };
  std::vector<std::string> stmts;
  for (int d = 0; d < 8; ++d) {
    stmts.push_back("INSERT INTO dept VALUES (" + std::to_string(d) +
                    ", 'dept_" + std::to_string(d) + "')");
  }
  for (int i = 0; i < 300; ++i) {
    stmts.push_back("INSERT INTO emp VALUES (" + std::to_string(i) + ", " +
                    std::to_string(i % 8) + ", " +
                    std::to_string(1000 + 7 * i % 900) + ")");
  }
  const std::string select =
      "SELECT id, name, pay FROM emp, dept WHERE emp.dept = dept.dept AND "
      "pay > 1200";
  for (const auto& batch : {ddl, stmts}) {
    for (const std::string& sql : batch) {
      ASSERT_TRUE(cached.ExecuteSql(sql).ok()) << sql;
      ASSERT_TRUE(plain.ExecuteSql(sql).ok()) << sql;
    }
  }
  auto check_select = [&](const std::string& label) {
    auto a = cached.ExecuteSql(select);
    auto b = plain.ExecuteSql(select);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(RowStrings(a->relation), RowStrings(b->relation)) << label;
  };
  check_select("cold");
  check_select("warm");  // second visit serves from the cache
  ASSERT_GT(cached.reuse_cache()->stats().hits, 0);

  // Mutate and re-check: the UPDATE must invalidate the cached plans.
  const std::string update = "UPDATE emp SET pay = 5000 WHERE dept = 3";
  ASSERT_TRUE(cached.ExecuteSql(update).ok());
  ASSERT_TRUE(plain.ExecuteSql(update).ok());
  EXPECT_GT(cached.reuse_cache()->stats().invalidations, 0);
  check_select("after update");
  check_select("after update, warm");

  const std::string insert = "INSERT INTO emp VALUES (999, 3, 9999)";
  ASSERT_TRUE(cached.ExecuteSql(insert).ok());
  ASSERT_TRUE(plain.ExecuteSql(insert).ok());
  check_select("after insert");

  // The cache.reuse.* counters surface through MetricsJson.
  const std::string json = cached.MetricsJson();
  EXPECT_NE(json.find("cache.reuse.hits"), std::string::npos) << json;
  EXPECT_NE(json.find("cache.reuse.bytes"), std::string::npos) << json;
}

TEST(ReuseCacheConcurrencyTest, ReadersThroughCacheWhileWritersInvalidate) {
  // 8 reader threads hammer two SELECT shapes through the cache while 2
  // writer threads update (invalidating) — every read must return rows
  // consistent with SOME committed state: pay is always one of the values
  // a committed statement wrote. Run under TSan via the preset filter.
  Database::Options opts;
  opts.reuse_cache_bytes = 8 << 20;
  Database db(opts);
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE acct (id INT64, bal INT64)").ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE tag (id INT64, t INT64)").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO acct VALUES (" +
                              std::to_string(i) + ", 100)")
                    .ok());
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO tag VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 4) + ")")
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&db, &stop, &failures, w] {
      for (int round = 1; round < 30 && !stop.load(); ++round) {
        const int bal = 100 + 100 * round + w;
        auto res = db.ExecuteSql("UPDATE acct SET bal = " +
                                 std::to_string(bal) + " WHERE id = " +
                                 std::to_string(17 + 31 * w));
        if (!res.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int rdr = 0; rdr < 8; ++rdr) {
    threads.emplace_back([&db, &stop, &failures, rdr] {
      const std::string sql =
          rdr % 2 == 0
              ? "SELECT acct.id, bal, t FROM acct, tag WHERE acct.id = "
                "tag.id AND t = 1"
              : "SELECT id, bal FROM acct WHERE bal >= 100";
      for (int i = 0; i < 40 && !stop.load(); ++i) {
        auto res = db.ExecuteSql(sql);
        if (!res.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // bal is always >= 100 in every committed state; a torn or stale
        // cache serve mixing rows across versions could break that.
        for (const Row& row : res->relation.rows()) {
          if (std::get<int64_t>(row[1]) < 100) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  EXPECT_EQ(failures.load(), 0);
  const ReuseCache::Stats stats = db.reuse_cache()->stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
  EXPECT_GT(stats.invalidations, 0);
}

}  // namespace
}  // namespace mmdb
