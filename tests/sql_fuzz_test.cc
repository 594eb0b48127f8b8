// Randomized end-to-end check of the whole query stack: random tables,
// random conjunctive queries, rendered to SQL and executed through the
// parser, optimizer and executor, must agree exactly with a brute-force
// cross-product oracle over the same Query struct, with no index and with
// each index kind on every column.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "db/database.h"

namespace mmdb {
namespace {

struct FuzzCase {
  uint64_t seed;
  int queries;
};

class SqlFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

std::multiset<std::string> Canonical(const Relation& rel) {
  std::multiset<std::string> out;
  for (const Row& row : rel.rows()) out.insert(RowToString(row));
  return out;
}

/// Brute-force evaluation of a Query over the database tables.
std::multiset<std::string> Oracle(const Database& db, const Query& q) {
  std::vector<const Relation*> tables;
  for (const std::string& name : q.tables) {
    tables.push_back(*db.GetTable(name));
  }
  // Column resolution: (table ordinal, column index) per ColumnRef.
  auto resolve = [&](const ColumnRef& ref) -> std::pair<int, int> {
    for (size_t t = 0; t < q.tables.size(); ++t) {
      if (q.tables[t] != ref.table) continue;
      auto idx = tables[t]->schema().ColumnIndex(ref.column);
      MMDB_CHECK(idx.ok());
      return {static_cast<int>(t), *idx};
    }
    MMDB_CHECK(false);
    return {-1, -1};
  };

  std::multiset<std::string> out;
  // Cross product via odometer (tables are small in this test).
  std::vector<size_t> cursor(tables.size(), 0);
  while (true) {
    bool keep = true;
    auto value_of = [&](const ColumnRef& ref) -> const Value& {
      auto [t, c] = resolve(ref);
      return tables[size_t(t)]->rows()[cursor[size_t(t)]][size_t(c)];
    };
    for (const JoinClause& jc : q.joins) {
      if (!ValuesEqual(value_of(jc.left), value_of(jc.right))) {
        keep = false;
        break;
      }
    }
    if (keep) {
      for (const Predicate& p : q.filters) {
        Row probe = {value_of(ColumnRef{p.table, p.column})};
        if (!BoundPredicate(p, 0).Matches(probe)) {
          keep = false;
          break;
        }
      }
    }
    if (keep) {
      Row projected;
      for (const ColumnRef& ref : q.select_columns) {
        projected.push_back(value_of(ref));
      }
      out.insert(RowToString(projected));
    }
    // Advance the odometer.
    size_t t = 0;
    for (; t < tables.size(); ++t) {
      if (++cursor[t] < size_t(tables[t]->num_tuples())) break;
      cursor[t] = 0;
    }
    if (t == tables.size()) break;
  }
  return out;
}

std::string LiteralToSql(const Value& v) {
  if (std::holds_alternative<std::string>(v)) {
    return "'" + std::get<std::string>(v) + "'";
  }
  return ValueToString(v);
}

/// Renders the Query back to its SQL text.
std::string ToSql(const Query& q) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < q.select_columns.size(); ++i) {
    if (i) sql += ", ";
    sql += q.select_columns[i].ToString();
  }
  sql += " FROM ";
  for (size_t i = 0; i < q.tables.size(); ++i) {
    if (i) sql += ", ";
    sql += q.tables[i];
  }
  std::vector<std::string> conjuncts;
  for (const JoinClause& jc : q.joins) {
    conjuncts.push_back(jc.left.ToString() + " = " + jc.right.ToString());
  }
  for (const Predicate& p : q.filters) {
    if (p.op == CmpOp::kPrefix) {
      conjuncts.push_back(p.table + "." + p.column + " LIKE '" +
                          std::get<std::string>(p.literal) + "%'");
    } else {
      conjuncts.push_back(p.table + "." + p.column + " " +
                          std::string(CmpOpName(p.op)) + " " +
                          LiteralToSql(p.literal));
    }
  }
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += conjuncts[i];
  }
  return sql;
}

TEST_P(SqlFuzzTest, EngineParserAndOracleAgree) {
  const FuzzCase param = GetParam();
  Random rng(param.seed);

  // --- Random schema + data: three small tables sharing an int domain. A
  // CHAR(48) column holds values with long shared prefixes, because the
  // B+-tree keys only a CHAR column's first 32 bytes.
  const char* names[] = {"t0", "t1", "t2"};
  const char* stems[] = {"ada", "bob", "cyd", "dee", "eve"};
  auto wide_head = [&] { return std::string(28 + 2 * rng.Uniform(4), 'p'); };
  std::vector<Schema> schemas;
  std::vector<Relation> data;
  for (int t = 0; t < 3; ++t) {
    Schema schema({Column::Int64("k"), Column::Int64("n" + std::to_string(t)),
                   Column::Double("d" + std::to_string(t)),
                   Column::Char("s" + std::to_string(t), 8),
                   Column::Char("w" + std::to_string(t), 48)});
    Relation rows(schema);
    const int64_t num_rows = 20 + int64_t(rng.Uniform(60));
    for (int64_t i = 0; i < num_rows; ++i) {
      rows.Add({static_cast<int64_t>(rng.Uniform(12)),
                static_cast<int64_t>(rng.Uniform(30)),
                double(rng.Uniform(100)) / 4.0,
                std::string(stems[rng.Uniform(5)]),
                wide_head() + stems[rng.Uniform(5)]});
    }
    schemas.push_back(std::move(schema));
    data.push_back(std::move(rows));
  }

  // --- The same data behind each access path: no index at all, then a
  // hash, an AVL or a B+-tree index on every column that kind can key.
  const std::pair<const char*, std::optional<Database::IndexType>> paths[] = {
      {"no index", std::nullopt},
      {"hash", Database::IndexType::kHash},
      {"avl", Database::IndexType::kAvl},
      {"btree", Database::IndexType::kBTree}};
  Database::Options dbopts;
  dbopts.memory_pages = 8;  // force spilling joins now and then
  std::vector<std::unique_ptr<Database>> dbs;
  for (const auto& [path, kind] : paths) {
    dbs.push_back(std::make_unique<Database>(dbopts));
    Database& db = *dbs.back();
    for (int t = 0; t < 3; ++t) {
      ASSERT_TRUE(db.CreateTable(names[t], schemas[size_t(t)]).ok());
      ASSERT_TRUE(db.BulkLoad(names[t], data[size_t(t)]).ok());
      if (!kind) continue;
      for (const Column& col : schemas[size_t(t)].columns()) {
        if (*kind == Database::IndexType::kBTree &&
            col.type == ValueType::kDouble) {
          continue;  // the B+-tree keys INT64 and CHAR only
        }
        ASSERT_TRUE(db.CreateIndex(names[t], col.name, *kind).ok()) << path;
      }
    }
  }

  for (int iteration = 0; iteration < param.queries; ++iteration) {
    // --- Random query over 1-3 tables.
    Query q;
    const int num_tables = 1 + int(rng.Uniform(3));
    for (int t = 0; t < num_tables; ++t) q.tables.push_back(names[t]);
    // Chain joins on k so the graph is connected.
    for (int t = 1; t < num_tables; ++t) {
      q.joins.push_back(JoinClause{ColumnRef{names[t - 1], "k"},
                                   ColumnRef{names[t], "k"}});
    }
    // 0-2 random filters.
    const int num_filters = int(rng.Uniform(3));
    for (int f = 0; f < num_filters; ++f) {
      const int t = int(rng.Uniform(uint64_t(num_tables)));
      const int c = int(rng.Uniform(5));
      const Column& col = schemas[size_t(t)].column(c);
      Predicate p;
      p.table = names[t];
      p.column = col.name;
      switch (col.type) {
        case ValueType::kInt64:
          p.op = static_cast<CmpOp>(rng.Uniform(6));  // kEq..kGe
          p.literal = Value{static_cast<int64_t>(rng.Uniform(30))};
          break;
        case ValueType::kDouble:
          p.op = rng.Bernoulli(0.5) ? CmpOp::kLt : CmpOp::kGe;
          p.literal = Value{double(rng.Uniform(100)) / 4.0};
          break;
        case ValueType::kString: {
          const std::string head = col.width > 32 ? wide_head() : "";
          if (rng.Bernoulli(0.5)) {
            p.op = CmpOp::kEq;
            p.literal = Value{head + stems[rng.Uniform(5)]};
          } else {
            p.op = CmpOp::kPrefix;
            p.literal = Value{head + "abcde"[rng.Uniform(5)]};
          }
          break;
        }
      }
      q.filters.push_back(std::move(p));
    }
    // 1-3 random select columns.
    const int num_select = 1 + int(rng.Uniform(3));
    for (int sidx = 0; sidx < num_select; ++sidx) {
      const int t = int(rng.Uniform(uint64_t(num_tables)));
      const int c = int(rng.Uniform(5));
      q.select_columns.push_back(
          ColumnRef{names[t], schemas[size_t(t)].column(c).name});
    }

    // Every access path must return the oracle's multiset, so they all
    // agree with one another too.
    const std::multiset<std::string> expected = Oracle(*dbs[0], q);
    const std::string sql = ToSql(q);
    for (size_t d = 0; d < dbs.size(); ++d) {
      auto via_sql = dbs[d]->ExecuteSql(sql);
      ASSERT_TRUE(via_sql.ok()) << sql << " -> " << via_sql.status().ToString();
      EXPECT_EQ(Canonical(via_sql->relation), expected)
          << "query " << iteration << " (" << paths[d].first << "):\n"
          << sql << "\nplan:\n" << via_sql->plan_text;
    }
  }
}

TEST(SqlCrashCorpusTest, AdversarialStatementsNeverCrash) {
  // Historical crashers plus fuzz-style garbage. Every statement must come
  // back as a Status (ok or error) — never an uncaught exception or abort.
  const char* corpus[] = {
      // std::stoll used to throw std::out_of_range on these.
      "SELECT k FROM t WHERE k = 99999999999999999999",
      "SELECT k FROM t WHERE k = -99999999999999999999",
      "INSERT INTO t VALUES (123456789012345678901234567890)",
      // std::stod overflow.
      "SELECT k FROM t WHERE d = "
      "999999999999999999999999999999999999999999999999999999999999999999999"
      "999999999999999999999999999999999999999999999999999999999999999999999"
      "999999999999999999999999999999999999999999999999999999999999999999999"
      "999999999999999999999999999999999999999999999999999999999999999999999"
      "999999999999999999999999999999999999999999999999999999.0",
      // Multi-dot and trailing-dot literals.
      "SELECT k FROM t WHERE d = 1.2.3",
      "SELECT k FROM t WHERE d = 1.2.3.4.5",
      "SELECT k FROM t WHERE d = .",
      "SELECT k FROM t WHERE d = 1.",
      "INSERT INTO t VALUES (1..2)",
      // General malformed shapes around literals and punctuation.
      "SELECT",
      "SELECT * FROM",
      "SELECT * FROM t WHERE",
      "SELECT * FROM t WHERE k =",
      "SELECT * FROM t WHERE k = 'unterminated",
      "SELECT * FROM t WHERE k = ''''",
      "EXPLAIN",
      "EXPLAIN ANALYZE",
      "EXPLAIN EXPLAIN SELECT * FROM t",
      "EXPLAIN ANALYZE ANALYZE SELECT * FROM t",
      "CREATE TABLE (",
      "INSERT INTO t VALUES (,)",
      "SELECT * FROM t GROUP BY",
      ")(*&^%$#@!",
      "",
      "   ",
      ";;;",
  };
  Database db;
  ASSERT_TRUE(
      db.CreateTable("t", Schema({Column::Int64("k"), Column::Double("d")}))
          .ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (1, 2.5)").ok());
  for (const char* sql : corpus) {
    auto result = db.ExecuteSql(sql);  // must not crash
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty()) << sql;
    }
  }
  // The engine is still healthy afterwards.
  auto ok = db.ExecuteSql("SELECT k FROM t WHERE d = 2.5");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->relation.num_tuples(), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest,
                         ::testing::Values(FuzzCase{1, 30}, FuzzCase{2, 30},
                                           FuzzCase{3, 30}, FuzzCase{4, 30},
                                           FuzzCase{20260708, 60}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace mmdb
