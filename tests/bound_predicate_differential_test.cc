// Differential suite for the bound filter predicate (DESIGN.md §14): random
// conjunctions of every operator over INT64, DOUBLE and CHAR columns —
// literals of the column's type and of every other type, kPrefix on
// strings, CHAR literals wider than the column and the empty one, ±0.0,
// INT64_MIN and INT64_MAX — run through a planned Filter.
// It must keep exactly the rows a CompareValues-based oracle keeps, in
// table order, and charge exactly its comparisons: one per predicate
// evaluated, stopping at the first that fails.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "optimizer/executor.h"

namespace mmdb {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// The evaluation rule the executor has always had, written against the
/// generic Value API: a value of another type than the literal is false,
/// kPrefix matches strings only, the other operators test CompareValues.
bool OracleMatches(const Predicate& p, const Value& v) {
  if (TypeOf(v) != TypeOf(p.literal)) return false;
  if (p.op == CmpOp::kPrefix) {
    if (TypeOf(v) != ValueType::kString) return false;
    const std::string& s = std::get<std::string>(v);
    const std::string& prefix = std::get<std::string>(p.literal);
    return s.rfind(prefix, 0) == 0;
  }
  const int c = CompareValues(v, p.literal);
  switch (p.op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
    case CmpOp::kPrefix:
      break;
  }
  return false;
}

const int64_t kInts[] = {kMin, kMin + 1, -7, -1, 0, 1, 7, kMax - 1, kMax};
const double kDoubles[] = {-1e300, -2.5, -1.0, -0.0, 0.0, 1.0, 2.5, 7.0, 1e300};
const char* const kStrings[] = {"", "a", "ab", "abc", "abd", "abcd", "b",
                                "ba", "zz"};
/// CHAR literals the CHAR(4) column cannot hold: wider than the column,
/// each sharing a prefix with a stored value or sorting past all of them.
const char* const kWideStrings[] = {"abcd\x01", "abcde", "abcz0", "zzzzz"};

Value RandomInt(std::mt19937_64& rng) {
  if (rng() % 2 == 0) return Value{kInts[rng() % std::size(kInts)]};
  return Value{static_cast<int64_t>(rng() % 21) - 10};
}
Value RandomDouble(std::mt19937_64& rng) {
  if (rng() % 2 == 0) return Value{kDoubles[rng() % std::size(kDoubles)]};
  return Value{(static_cast<double>(rng() % 41) - 20) / 2};
}
Value RandomString(std::mt19937_64& rng) {
  return Value{std::string(kStrings[rng() % std::size(kStrings)])};
}
Value RandomStringLiteral(std::mt19937_64& rng) {
  if (rng() % 4 == 0) {
    return Value{std::string(kWideStrings[rng() % std::size(kWideStrings)])};
  }
  return RandomString(rng);
}

/// t(i INT64, d DOUBLE, s CHAR(4)).
Relation MakeTable(std::mt19937_64& rng, int64_t n) {
  Relation rel(Schema({Column::Int64("i"), Column::Double("d"),
                       Column::Char("s", 4)}));
  for (int64_t r = 0; r < n; ++r) {
    rel.Add({RandomInt(rng), RandomDouble(rng), RandomString(rng)});
  }
  return rel;
}

Predicate RandomPredicate(std::mt19937_64& rng) {
  static const char* const kColumns[] = {"i", "d", "s"};
  const int col = static_cast<int>(rng() % 3);
  Predicate p;
  p.table = "t";
  p.column = kColumns[col];
  p.op = static_cast<CmpOp>(rng() % 7);
  // Mostly the column's own type; otherwise any type, so a DOUBLE literal
  // meets the INT64 column, an INT64 literal the DOUBLE one, and numbers
  // meet strings.
  const int type = rng() % 4 == 0 ? static_cast<int>(rng() % 3) : col;
  if (type == 0) p.literal = RandomInt(rng);
  if (type == 1) p.literal = RandomDouble(rng);
  if (type == 2) p.literal = RandomStringLiteral(rng);
  return p;
}

/// Filter(preds) over Scan(t).
std::unique_ptr<PlanNode> FilterPlan(std::vector<Predicate> preds) {
  auto scan = std::make_unique<PlanNode>();
  scan->kind = PlanNode::Kind::kScan;
  scan->table = "t";
  scan->output_columns = {{"t", "i"}, {"t", "d"}, {"t", "s"}};
  auto filter = std::make_unique<PlanNode>();
  filter->kind = PlanNode::Kind::kFilter;
  filter->predicates = std::move(preds);
  filter->output_columns = scan->output_columns;
  filter->child_left = std::move(scan);
  return filter;
}

/// Runs Filter(preds) over `table` and expects the oracle's rows, in table
/// order, and its comparisons.
void ExpectOracle(const Relation& table, const Catalog& catalog,
                  const std::vector<Predicate>& preds, int64_t* kept) {
  std::vector<std::string> want;
  int64_t want_comps = 0;
  for (const Row& row : table.rows()) {
    bool pass = true;
    for (const Predicate& p : preds) {
      ++want_comps;
      const int col = p.column == "i" ? 0 : (p.column == "d" ? 1 : 2);
      if (!OracleMatches(p, row[static_cast<size_t>(col)])) {
        pass = false;
        break;
      }
    }
    if (pass) want.push_back(RowToString(row));
  }
  *kept += want.empty() ? 0 : 1;

  ExecEnv env;
  auto out = ExecutePlan(*FilterPlan(preds), catalog, &env.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::vector<std::string> got;
  for (const Row& row : out->rows()) got.push_back(RowToString(row));
  std::string what;
  for (const Predicate& p : preds) what += " " + p.ToString();
  EXPECT_EQ(got, want) << what;
  EXPECT_EQ(env.clock.counters().comparisons, want_comps) << what;
}

TEST(BoundPredicateDifferentialTest, MatchesCompareValuesOracle) {
  std::mt19937_64 rng(20240611);
  const Relation table = MakeTable(rng, 6267);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", &table).ok());
  int64_t kept_somewhere = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<Predicate> preds;
    const int num_preds = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < num_preds; ++k) preds.push_back(RandomPredicate(rng));
    ExpectOracle(table, catalog, preds, &kept_somewhere);
  }
  // The random conjunctions are not all empty.
  EXPECT_GT(kept_somewhere, 50);
}

TEST(BoundPredicateDifferentialTest, WideAndEmptyCharLiterals) {
  // Every operator against the CHAR(4) column with the empty literal and
  // with literals wider than the column, which no record can hold.
  std::mt19937_64 rng(7);
  const Relation table = MakeTable(rng, 500);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", &table).ok());
  std::vector<std::string> literals = {""};
  literals.insert(literals.end(), std::begin(kWideStrings),
                  std::end(kWideStrings));
  int64_t kept = 0;
  for (const std::string& literal : literals) {
    for (int op = 0; op < 7; ++op) {
      ExpectOracle(table, catalog,
                   {{"t", "s", static_cast<CmpOp>(op), Value{literal}}},
                   &kept);
    }
  }
  EXPECT_GT(kept, 10);
}

/// t(i INT64, d DOUBLE, s CHAR(4)) holding one record.
Relation OneRecord(const Row& row) {
  Relation rel(Schema({Column::Int64("i"), Column::Double("d"),
                       Column::Char("s", 4)}));
  rel.Add(row);
  return rel;
}

TEST(BoundPredicateDifferentialTest, EdgeLiterals) {
  const Relation rel =
      OneRecord({Value{kMin}, Value{-0.0}, Value{std::string("abc")}});
  auto matches = [&rel](int col, CmpOp op, Value literal) {
    return BoundPredicate({"t", "c", op, std::move(literal)}, rel.schema(),
                          col)
        .Matches(rel.record(0));
  };
  EXPECT_TRUE(matches(0, CmpOp::kEq, Value{kMin}));
  EXPECT_TRUE(matches(0, CmpOp::kLt, Value{kMax}));
  EXPECT_FALSE(matches(0, CmpOp::kGt, Value{kMax}));
  // -0.0 equals 0.0 under CompareValues.
  EXPECT_TRUE(matches(1, CmpOp::kEq, Value{0.0}));
  EXPECT_FALSE(matches(1, CmpOp::kLt, Value{0.0}));
  EXPECT_TRUE(matches(1, CmpOp::kGe, Value{0.0}));
  // The other numeric type never matches, not even an equal number.
  EXPECT_FALSE(matches(1, CmpOp::kEq, Value{int64_t{0}}));
  EXPECT_FALSE(matches(0, CmpOp::kLe, Value{0.0}));
  EXPECT_FALSE(matches(0, CmpOp::kNe, Value{0.0}));
  // kPrefix: strings only, the empty prefix matches every string.
  EXPECT_TRUE(matches(2, CmpOp::kPrefix, Value{std::string("ab")}));
  EXPECT_TRUE(matches(2, CmpOp::kPrefix, Value{std::string("")}));
  EXPECT_TRUE(matches(2, CmpOp::kPrefix, Value{std::string("abc")}));
  EXPECT_FALSE(matches(2, CmpOp::kPrefix, Value{std::string("abcd")}));
  EXPECT_FALSE(matches(0, CmpOp::kPrefix, Value{kMin}));
  EXPECT_FALSE(matches(1, CmpOp::kPrefix, Value{-0.0}));
  EXPECT_FALSE(matches(2, CmpOp::kEq, Value{int64_t{0}}));
  // A literal wider than the column compares as the longer string.
  EXPECT_TRUE(matches(2, CmpOp::kLt, Value{std::string("abcde")}));
  EXPECT_FALSE(matches(2, CmpOp::kPrefix, Value{std::string("abcde")}));
}

TEST(BoundPredicateDifferentialTest, ValueOfAnotherTypeThanItsColumn) {
  // A record holds each field in its column's type, so Relation::Add
  // refuses a row with a value of another type than its column; a literal
  // of another type than the column never matches.
  Relation rel(Schema({Column::Int64("i"), Column::Double("d")}));
  EXPECT_DEATH(rel.Add({Value{2.0}, Value{int64_t{2}}}), "type mismatch");
  rel.Add({Value{int64_t{2}}, Value{2.0}});
  for (const CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                         CmpOp::kGt, CmpOp::kGe, CmpOp::kPrefix}) {
    EXPECT_FALSE(BoundPredicate({"t", "i", op, Value{2.0}}, rel.schema(), 0)
                     .Matches(rel.record(0)));
    EXPECT_FALSE(
        BoundPredicate({"t", "d", op, Value{int64_t{2}}}, rel.schema(), 1)
            .Matches(rel.record(0)));
  }
  EXPECT_TRUE(
      BoundPredicate({"t", "d", CmpOp::kEq, Value{2.0}}, rel.schema(), 1)
          .Matches(rel.record(0)));
}

}  // namespace
}  // namespace mmdb
